package mlaas

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// writeZoo saves n distinct checkpoints (zoo-0 .. zoo-<n-1>) plus one named
// "clean" into a fresh temp dir and returns the dir and the in-memory
// models keyed by id.
func writeZoo(t *testing.T, n int) (string, map[string]*nn.Model) {
	t.Helper()
	dir := t.TempDir()
	models := make(map[string]*nn.Model)
	ids := []string{"clean"}
	for i := 0; i < n; i++ {
		ids = append(ids, "zoo-"+string(rune('a'+i)))
	}
	for i, id := range ids {
		m, err := nn.Build(nn.ArchConfig{Arch: nn.ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8}, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, id+".bin")
		if err := m.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		sc := nn.SidecarFor(m, "zoo/"+id, "test checkpoint "+id)
		if err := sc.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		models[id] = m
	}
	return dir, models
}

func TestRegistryScanAndDefaults(t *testing.T) {
	dir, models := writeZoo(t, 3)
	reg, err := OpenRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.Len() != len(models) {
		t.Fatalf("registry hosts %d models, want %d", reg.Len(), len(models))
	}
	if reg.DefaultID() != "clean" {
		t.Fatalf("default %q, want the checkpoint named clean", reg.DefaultID())
	}
	list := reg.Models()
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("listing not sorted: %q before %q", list[i-1].ID, list[i].ID)
		}
	}
	info, err := reg.Info("zoo-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Classes != 3 || info.InputDim != 16 {
		t.Fatalf("scan metadata %d classes / dim %d, want 3/16", info.Classes, info.InputDim)
	}
	if info.Name != "zoo/zoo-a" || info.Note == "" || info.Params == 0 {
		t.Fatalf("sidecar metadata not picked up: %+v", info)
	}
	if info.Loaded {
		t.Fatal("scan must not load weights")
	}
	if _, err := reg.Info("nope"); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if reg.LoadedCount() != 0 {
		t.Fatalf("loaded %d models before any request", reg.LoadedCount())
	}
}

func TestRegistryExplicitDefault(t *testing.T) {
	dir, _ := writeZoo(t, 2)
	reg, err := OpenRegistry(dir, RegistryConfig{Default: "zoo-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.DefaultID() != "zoo-b" {
		t.Fatalf("default %q, want zoo-b", reg.DefaultID())
	}
	if _, err := OpenRegistry(dir, RegistryConfig{Default: "missing"}); err == nil {
		t.Fatal("expected error for unknown default id")
	}
}

func TestRegistryRejectsBadCheckpoint(t *testing.T) {
	dir, _ := writeZoo(t, 1)
	if err := os.WriteFile(filepath.Join(dir, "junk.bin"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistry(dir, RegistryConfig{}); err == nil {
		t.Fatal("expected scan error for corrupt checkpoint")
	}
}

func TestRegistryServingMatchesInProcess(t *testing.T) {
	dir, models := writeZoo(t, 3)
	reg, err := OpenRegistry(dir, RegistryConfig{MaxLoaded: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	ctx := context.Background()
	list, err := ListModels(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != len(models) || list.Default != "clean" {
		t.Fatalf("listing %+v", list)
	}
	x := tensor.New(5, 16)
	rng.New(9).Uniform(x.Data, 0, 1)
	for _, mi := range list.Models {
		c, err := DialModel(ctx, srv.URL, mi.ID, ClientConfig{})
		if err != nil {
			t.Fatalf("dial %s: %v", mi.ID, err)
		}
		if c.ModelID() != mi.ID || c.Name() != "zoo/"+mi.ID {
			t.Fatalf("client bound to %q name %q", c.ModelID(), c.Name())
		}
		got, err := c.Predict(ctx, x)
		if err != nil {
			t.Fatalf("predict %s: %v", mi.ID, err)
		}
		want := models[mi.ID].Predict(x.Clone())
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("model %s confidence %d differs: %v vs %v", mi.ID, i, got.Data[i], want.Data[i])
			}
		}
	}

	// The legacy un-prefixed routes alias the default model.
	c, err := Dial(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	want := models["clean"].Predict(x.Clone())
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("legacy route row %d differs from default model", i)
		}
	}

	// Unknown ids are 404, surfaced as non-retryable client errors.
	if _, err := DialModel(ctx, srv.URL, "missing", ClientConfig{Retries: NoRetries}); err == nil {
		t.Fatal("expected 404 for unknown model")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir, models := writeZoo(t, 3) // 4 checkpoints incl. clean
	reg, err := OpenRegistry(dir, RegistryConfig{MaxLoaded: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()
	x := tensor.New(1, 16)
	rng.New(3).Uniform(x.Data, 0, 1)

	touch := func(id string) {
		t.Helper()
		if _, _, err := reg.Predict(ctx, id, x.Clone(), false); err != nil {
			t.Fatalf("predict %s: %v", id, err)
		}
	}
	loaded := func() map[string]bool {
		set := make(map[string]bool)
		for _, mi := range reg.Models() {
			if mi.Loaded {
				set[mi.ID] = true
			}
		}
		return set
	}

	// Every checkpoint has the same shape, so each resident model charges
	// the same weight bytes and eviction refunds exactly that.
	perModel := models["clean"].WeightBytes()
	resident := func(want int) {
		t.Helper()
		if got := reg.ResidentBytes(); got != want*perModel {
			t.Fatalf("resident %d bytes, want %d models x %d", got, want, perModel)
		}
	}

	resident(0)
	touch("clean")
	touch("zoo-a")
	if n := reg.LoadedCount(); n != 2 {
		t.Fatalf("loaded %d, want 2", n)
	}
	resident(2)
	// Loading a third must evict the least recently used (clean).
	touch("zoo-b")
	set := loaded()
	if len(set) != 2 || set["clean"] || !set["zoo-a"] || !set["zoo-b"] {
		t.Fatalf("hot-set after eviction: %v", set)
	}
	resident(2)
	if info, _ := reg.Info("clean"); info.ResidentBytes != 0 {
		t.Fatalf("evicted model still charges %d bytes", info.ResidentBytes)
	}
	// Re-touch zoo-a so zoo-b becomes LRU, then load a fourth.
	touch("zoo-a")
	touch("zoo-c")
	set = loaded()
	if len(set) != 2 || set["zoo-b"] || !set["zoo-a"] || !set["zoo-c"] {
		t.Fatalf("hot-set after recency update: %v", set)
	}
	// Evicted models reload on demand and still serve.
	touch("clean")
	if n := reg.LoadedCount(); n != 2 {
		t.Fatalf("loaded %d after reload, want 2", n)
	}
	reg.Close()
	resident(0)
}

func TestRegistryConcurrentLoadAndEvictionUnderLoad(t *testing.T) {
	dir, models := writeZoo(t, 4) // 5 checkpoints, hot-set of 2
	reg, err := OpenRegistry(dir, RegistryConfig{MaxLoaded: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()
	ids := make([]string, 0, len(models))
	for id := range models {
		ids = append(ids, id)
	}

	// Hammer every model from many goroutines at once: cold loads race,
	// evictions interleave with in-flight predicts, and every response must
	// still match the right model bit-for-bit.
	const workers = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < rounds; i++ {
				id := ids[(w+i)%len(ids)]
				x := tensor.New(2, 16)
				r.Uniform(x.Data, 0, 1)
				got, _, err := reg.Predict(ctx, id, x, false)
				if err != nil {
					errs[w] = err
					return
				}
				want := models[id].Predict(x.Clone())
				for j := range want.Data {
					if math.Abs(got.Data[j]-want.Data[j]) > 1e-9 {
						t.Errorf("worker %d: model %s row value %d differs", w, id, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Once the storm drains, the hot-set is back within budget.
	if n := reg.LoadedCount(); n > 2 {
		t.Fatalf("hot-set %d exceeds MaxLoaded 2 after drain", n)
	}
}

// TestRegistryRejectsInt8Sidecar: int8 serving was removed, so a sidecar
// that still asks for it — or for any precision but fp64 — fails the scan
// with an error naming the removal instead of being served fp64 in silence.
// "fp64" (and no precision at all) still load and serve the exact path.
func TestRegistryRejectsInt8Sidecar(t *testing.T) {
	dir, models := writeZoo(t, 1)
	path := filepath.Join(dir, "zoo-a.bin")
	sc := nn.SidecarFor(models["zoo-a"], "", "")
	for _, precision := range []string{"int8", "bf16"} {
		sc.Precision = precision
		if err := sc.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		_, err := OpenRegistry(dir, RegistryConfig{})
		if err == nil || !strings.Contains(err.Error(), "int8 serving was removed") {
			t.Fatalf("sidecar precision %q: scan error %v, want one naming the int8 removal", precision, err)
		}
	}

	sc.Precision = "fp64"
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	x := tensor.New(3, 16)
	rng.New(23).Uniform(x.Data, 0, 1)
	got, _, err := reg.Predict(context.Background(), "zoo-a", x.Clone(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := models["zoo-a"].Predict(x.Clone())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fp64-pinned model not bit-identical to in-process fp at %d", i)
		}
	}
}

func TestRegistryPredictAfterClose(t *testing.T) {
	dir, _ := writeZoo(t, 1)
	reg, err := OpenRegistry(dir, RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	reg.Close() // idempotent
	if _, _, err := reg.Predict(context.Background(), "", tensor.New(1, 16), false); err == nil {
		t.Fatal("expected error after Close")
	}
}
