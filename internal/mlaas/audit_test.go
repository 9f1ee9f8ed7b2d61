package mlaas

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// auditEnv is the shared audit-service fixture: one trained detector, a
// zoo directory with one clean and one backdoored checkpoint, and the
// detector's artifact bytes on disk.
type auditEnv struct {
	det     *bprom.Detector
	artPath string
	zoo     string
}

var (
	auditOnce sync.Once
	auditShr  *auditEnv
)

func sharedAuditEnv(t testing.TB) *auditEnv {
	t.Helper()
	auditOnce.Do(func() {
		ctx := context.Background()
		srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), 1)
		srcTrain, srcTest := srcGen.GenerateSplit(12, 40, rng.New(2))
		tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 3)
		tgtTrain, tgtTest := tgtGen.GenerateSplit(6, 4, rng.New(4))
		det, err := bprom.Train(ctx, bprom.Config{
			Reserved:      srcTest.Reserve(0.10, rng.New(5)),
			ExternalTrain: tgtTrain,
			ExternalTest:  tgtTest,
			NumClean:      2,
			NumBackdoor:   2,
			ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 12},
			ShadowTrain:   trainer.Config{Epochs: 3},
			WhiteBox:      vp.WhiteBoxConfig{Epochs: 2},
			BlackBox:      vp.BlackBoxConfig{Iterations: 3, BatchSize: 6},
			QuerySamples:  6,
			Seed:          42,
		})
		if err != nil {
			panic(err)
		}

		dir, err := os.MkdirTemp("", "bprom-audit-test-*")
		if err != nil {
			panic(err)
		}
		artPath := filepath.Join(dir, "detector.bpd")
		if err := det.SaveFile(artPath); err != nil {
			panic(err)
		}

		zoo := filepath.Join(dir, "zoo")
		if err := os.MkdirAll(zoo, 0o755); err != nil {
			panic(err)
		}
		poisoned, _, err := attack.Poison(srcTrain, attack.Config{Kind: attack.BadNets, PoisonRate: 0.2, Seed: 9}, rng.New(10))
		if err != nil {
			panic(err)
		}
		for _, up := range []struct {
			id string
			ds *data.Dataset
		}{{"clean", srcTrain}, {"badnets", poisoned}} {
			m, err := nn.Build(nn.ArchConfig{
				Arch: nn.ArchConvLite, C: up.ds.Shape.C, H: up.ds.Shape.H, W: up.ds.Shape.W,
				NumClasses: up.ds.Classes, Hidden: 12,
			}, rng.New(20))
			if err != nil {
				panic(err)
			}
			if _, err := trainer.Train(ctx, m, up.ds, trainer.Config{Epochs: 3}, rng.New(21)); err != nil {
				panic(err)
			}
			if err := m.SaveFile(filepath.Join(zoo, up.id+".bin")); err != nil {
				panic(err)
			}
		}
		// An extra checkpoint whose geometry the detector cannot prompt.
		odd, err := nn.Build(nn.ArchConfig{Arch: nn.ArchConvLite, C: 1, H: 4, W: 4, NumClasses: 10, Hidden: 8}, rng.New(30))
		if err != nil {
			panic(err)
		}
		if err := odd.SaveFile(filepath.Join(zoo, "oddshape.bin")); err != nil {
			panic(err)
		}
		auditShr = &auditEnv{det: det, artPath: artPath, zoo: zoo}
	})
	return auditShr
}

// newAuditNode builds a server over the shared zoo with audits enabled over
// a detector freshly loaded from the .bpd artifact — the fresh-process side
// of the train-once / audit-many contract.
func newAuditNode(t testing.TB, cfg AuditConfig) *Server {
	t.Helper()
	env := sharedAuditEnv(t)
	loaded, err := bprom.LoadFile(env.artPath)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(env.zoo, RegistryConfig{MaxLoaded: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	if err := s.EnableAudits(loaded, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// startAuditServer serves newAuditNode over HTTP with two audit workers.
func startAuditServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s := newAuditNode(t, AuditConfig{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s
}

// TestServerSideAuditMatchesInProcessInspect is the acceptance check of the
// audit redesign, extending the PR 3 remote-parity test across BOTH new
// boundaries at once: a detector round-tripped through its .bpd artifact
// into a "fresh process", driving a server-side audit job against a hosted
// checkpoint, must produce a verdict bit-identical to the original
// in-memory detector inspecting the same checkpoint in-process.
func TestServerSideAuditMatchesInProcessInspect(t *testing.T) {
	env := sharedAuditEnv(t)
	srv, _ := startAuditServer(t)
	ctx := context.Background()

	for i, id := range []string{"clean", "badnets"} {
		c, err := DialModel(ctx, srv.URL, id, ClientConfig{AuditPoll: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		job, err := c.AuditModel(ctx, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.WaitAudit(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != "done" || final.Verdict == nil {
			t.Fatalf("audit of %s did not finish: %+v", id, final)
		}
		if final.Verdict.Queries == 0 || final.Progress.Queries != final.Verdict.Queries {
			t.Fatalf("audit of %s lost its query count: %+v", id, final)
		}

		m, err := nn.LoadFile(filepath.Join(env.zoo, id+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := env.det.Inspect(ctx, oracle.NewModelOracle(m), 100+i)
		if err != nil {
			t.Fatal(err)
		}
		if *final.Verdict != want {
			t.Fatalf("server-side audit of %s: verdict %+v != in-process %+v", id, *final.Verdict, want)
		}
	}
}

func TestAuditRouteLifecycle(t *testing.T) {
	srv, _ := startAuditServer(t)
	ctx := context.Background()
	c, err := DialModel(ctx, srv.URL, "clean", ClientConfig{AuditPoll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	job, err := c.AuditModel(ctx, ServerAssignedInspectID)
	if err != nil {
		t.Fatal(err)
	}
	if job.ModelID != "clean" || job.State == "" {
		t.Fatalf("submitted job: %+v", job)
	}
	list, err := c.ListAudits(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("listing: %+v", list)
	}
	got, err := c.GetAudit(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != job.ID {
		t.Fatalf("GetAudit: %+v", got)
	}
	final, err := c.WaitAudit(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Terminal() {
		t.Fatalf("WaitAudit returned non-terminal job: %+v", final)
	}
	if _, err := c.CancelAudit(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAudit(ctx, job.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("deleted job should 404, got %v", err)
	}
}

func TestAuditSubmissionValidation(t *testing.T) {
	srv, _ := startAuditServer(t)

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/v1/models/nosuch/audits"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %s", resp.Status)
	}
	// oddshape's input geometry doesn't match the detector's prompt canvas.
	if resp := post("/v1/models/oddshape/audits"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incompatible model: %s", resp.Status)
	}

	// Audits disabled: every audit route answers 501.
	plain := httptest.NewServer(NewServer(testModel(t), ServerConfig{}).Handler())
	t.Cleanup(plain.Close)
	if resp, err := http.Post(plain.URL+"/v1/audits", "application/json", nil); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("audits disabled: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := startAuditServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var h struct {
		Status        string `json:"status"`
		Models        int    `json:"models"`
		AuditsEnabled bool   `json:"audits_enabled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Models != 3 || !h.AuditsEnabled {
		t.Fatalf("healthz payload: %+v", h)
	}
}

// TestPredictStopsRetryingOnCancelledContext pins the retry-path fix: once
// the caller's context is cancelled, Predict must not issue further
// attempts even though 5xx responses are normally retryable.
func TestPredictStopsRetryingOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/info" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"id":"default","name":"flaky","classes":3,"input_dim":16,"max_batch":64}`))
			return
		}
		hits.Add(1)
		cancel() // the caller gives up after the first failure lands
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)

	c, err := Dial(context.Background(), failing.URL, ClientConfig{Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Predict(ctx, tensor.New(1, 16))
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should surface the cancellation, got: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("predict hit the endpoint %d times after cancellation, want 1", got)
	}
	// 5 retries at exponential backoff would take >3s; aborting on cancel
	// must return almost immediately.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled predict took %s", elapsed)
	}
}
