package mlaas

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// testScreener builds a screener whose prompt canvas matches testModel
// (1x4x4, input dim 16), with a deterministic non-trivial border.
func testScreener(t testing.TB, threshold float64) *vp.Screener {
	t.Helper()
	p, err := vp.NewPrompt(data.Shape{C: 1, H: 4, W: 4}, data.Shape{C: 1, H: 8, W: 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng.New(77).Uniform(p.Theta, 0, 1)
	s, err := vp.NewScreener(p, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScreeningAnnotateKeepsConfidencesBitIdentical is the tentpole's
// non-negotiable: turning screening on (annotate policy) must not move a
// single confidence bit. Plain rows sit at the same offsets of the fused
// micro-batch tensor whether or not prompted views ride behind them, and
// nn.Model.Predict is row-independent — this test holds that contract.
func TestScreeningAnnotateKeepsConfidencesBitIdentical(t *testing.T) {
	ctx := context.Background()
	plainSrv, _ := startTestServer(t, ServerConfig{})
	scrSrv, _ := startTestServer(t, ServerConfig{Screener: testScreener(t, 0.5)})

	cPlain, err := Dial(ctx, plainSrv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cPlain.Screened() {
		t.Fatal("unscreened endpoint advertises screening")
	}
	cScr, err := Dial(ctx, scrSrv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !cScr.Screened() || cScr.ScreenPolicy() != ScreenAnnotate {
		t.Fatalf("screened endpoint metadata: screened=%v policy=%q", cScr.Screened(), cScr.ScreenPolicy())
	}

	x := tensor.New(7, 16)
	rng.New(3).Uniform(x.Data, 0, 1)
	want, err := cPlain.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	got, scr, err := cScr.PredictScreened(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(scr) != 7 {
		t.Fatalf("got %d screening entries for 7 rows", len(scr))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("screened confidence %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	for i, s := range scr {
		if s.Threshold != 0.5 || s.Score < 0 || s.Score > 1 {
			t.Fatalf("screening row %d implausible: %+v", i, s)
		}
		if s.Flagged != (s.Score >= s.Threshold) {
			t.Fatalf("screening row %d flag disagrees with its own score: %+v", i, s)
		}
	}

	// Plain Predict against the screened endpoint opts out on the wire and
	// must stay bit-identical too.
	got2, err := cScr.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got2.Data[i] != want.Data[i] {
			t.Fatalf("opt-out confidence %d differs: %v vs %v", i, got2.Data[i], want.Data[i])
		}
	}
}

// TestScreeningScoresMatchSerialReference pins fused-path parity: one
// batched screened request and n single-row screened requests must both
// reproduce vp.Screener.Screen's two-pass reference scores exactly.
func TestScreeningScoresMatchSerialReference(t *testing.T) {
	ctx := context.Background()
	sc := testScreener(t, 0.5)
	srv, m := startTestServer(t, ServerConfig{Screener: sc, MaxBatch: 64})
	c, err := Dial(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 9
	x := tensor.New(n, 16)
	rng.New(12).Uniform(x.Data, 0, 1)
	ref := sc.Screen(m, x.Clone())

	_, batch, err := c.PredictScreened(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != n {
		t.Fatalf("batched request returned %d screening entries", len(batch))
	}
	for i := range ref {
		if batch[i].Score != ref[i].Score || batch[i].Flagged != ref[i].Flagged {
			t.Fatalf("batched score %d differs from reference: %+v vs %+v", i, batch[i], ref[i])
		}
	}
	for i := 0; i < n; i++ {
		row := tensor.FromSlice(x.Data[i*16:(i+1)*16], 1, 16)
		_, one, err := c.PredictScreened(ctx, row)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 || one[0].Score != ref[i].Score || one[0].Flagged != ref[i].Flagged {
			t.Fatalf("single-row score %d differs from reference: %+v vs %+v", i, one, ref[i])
		}
	}
}

// TestScreeningConcurrentMatchesReference blasts a screened server from
// concurrent clients so micro-batches coalesce rows AND prompted views from
// different requests into shared tensors — every worker must still get its
// own reference scores back. Run under -race this doubles as the data-race
// check on the fused screening path.
func TestScreeningConcurrentMatchesReference(t *testing.T) {
	ctx := context.Background()
	sc := testScreener(t, 0.5)
	srv, m := startTestServer(t, ServerConfig{Screener: sc, MaxBatch: 32, MaxConcurrent: 4})
	c, err := Dial(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const workers, rows = 8, 5
	inputs := make([]*tensor.Tensor, workers)
	refs := make([][]vp.ScreenResult, workers)
	for w := 0; w < workers; w++ {
		inputs[w] = tensor.New(rows, 16)
		rng.New(uint64(100+w)).Uniform(inputs[w].Data, 0, 1)
		refs[w] = sc.Screen(m, inputs[w].Clone())
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				_, scr, err := c.PredictScreened(ctx, inputs[w])
				if err != nil {
					errs[w] = err
					return
				}
				for i := range refs[w] {
					if scr[i].Score != refs[w][i].Score || scr[i].Flagged != refs[w][i].Flagged {
						errs[w] = fmt.Errorf("worker %d iter %d row %d: %+v vs reference %+v", w, iter, i, scr[i], refs[w][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScreenRejectPolicyWithholdsFlaggedRows drives the reject policy with
// a threshold low enough to flag everything: screened requests get their
// confidences withheld (null rows on the wire, zero rows in the client)
// with a structured screening error, while the wire-level opt-out still
// serves the exact unscreened confidences.
func TestScreenRejectPolicyWithholdsFlaggedRows(t *testing.T) {
	ctx := context.Background()
	srv, m := startTestServer(t, ServerConfig{Screener: testScreener(t, 0.05), ScreenPolicy: ScreenReject})
	c, err := Dial(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ScreenPolicy() != ScreenReject {
		t.Fatalf("advertised policy %q, want reject", c.ScreenPolicy())
	}

	const n = 4
	x := tensor.New(n, 16)
	rng.New(8).Uniform(x.Data, 0, 1)
	out, scr, err := c.PredictScreened(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !scr[i].Flagged || !scr[i].Rejected || scr[i].Error == "" {
			t.Fatalf("row %d not rejected under reject policy: %+v", i, scr[i])
		}
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("rejected confidences leaked at %d: %v", i, v)
		}
	}

	// The wire shape: confidences null for rejected rows, screening says why.
	body := `{"inputs": [[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.1,0.2,0.3,0.4,0.5,0.6,0.7]]}`
	resp, err := srv.Client().Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reject policy answered %d, want 200 with withheld rows", resp.StatusCode)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Confidences) != 1 || pr.Confidences[0] != nil {
		t.Fatalf("flagged row confidences on the wire: %v, want null", pr.Confidences)
	}
	if len(pr.Screening) != 1 || !pr.Screening[0].Rejected {
		t.Fatalf("flagged row screening block: %+v", pr.Screening)
	}

	// Opting out of screening opts out of rejection: plain Predict serves
	// the full unscreened confidences.
	want := m.Predict(x.Clone())
	got, err := c.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("opt-out confidence %d differs under reject policy: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestRegistrySidecarScreenOverrides covers per-model screening resolution:
// compatible models screen by default under a registry screener, "off" opts
// one out, and "on" without a screener fails the scan.
func TestRegistrySidecarScreenOverrides(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := testModel(t)
	for _, id := range []string{"alpha", "beta"} {
		if err := m.SaveFile(filepath.Join(dir, id+".bin")); err != nil {
			t.Fatal(err)
		}
	}
	if err := (nn.Sidecar{Screen: "off"}).WriteFile(filepath.Join(dir, "beta.bin")); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(dir, RegistryConfig{Screener: testScreener(t, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	for id, want := range map[string]bool{"alpha": true, "beta": false} {
		info, err := reg.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Screened != want {
			t.Fatalf("model %s advertises screened=%v, want %v", id, info.Screened, want)
		}
	}
	x := tensor.New(3, 16)
	rng.New(9).Uniform(x.Data, 0, 1)
	if _, scores, err := reg.Predict(ctx, "alpha", x.Clone(), true); err != nil || len(scores) != 3 {
		t.Fatalf("screened model: scores=%v err=%v", scores, err)
	}
	if _, scores, err := reg.Predict(ctx, "beta", x.Clone(), true); err != nil || scores != nil {
		t.Fatalf("opted-out model returned scores=%v err=%v", scores, err)
	}

	// "on" is an assertion: without a screener the scan must fail.
	if err := (nn.Sidecar{Screen: "on"}).WriteFile(filepath.Join(dir, "alpha.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistry(dir, RegistryConfig{}); err == nil {
		t.Fatal("sidecar screen \"on\" without a registry screener did not fail the scan")
	}
	// Unknown values are a scan error, not a silent default.
	if err := (nn.Sidecar{Screen: "maybe"}).WriteFile(filepath.Join(dir, "alpha.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistry(dir, RegistryConfig{Screener: testScreener(t, 0.5)}); err == nil {
		t.Fatal("sidecar screen \"maybe\" did not fail the scan")
	}
}

// stallOracle blocks every audit query until released, wedging an audit
// worker for as long as a test needs the queue to stay full. Its first query
// closes entered: from then on a worker holds the job.
type stallOracle struct {
	classes, dim int
	release      chan struct{}
	entered      chan struct{}
	once         sync.Once
}

func newStallOracle(classes, dim int, release chan struct{}) *stallOracle {
	return &stallOracle{classes: classes, dim: dim, release: release, entered: make(chan struct{})}
}

func (o *stallOracle) NumClasses() int { return o.classes }
func (o *stallOracle) InputDim() int   { return o.dim }
func (o *stallOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	o.once.Do(func() { close(o.entered) })
	select {
	case <-o.release:
	case <-ctx.Done():
	}
	return tensor.New(x.Dim(0), o.classes), nil
}

// TestAuditQueueFullCarriesRetryAfter pins the 429 contract: a full audit
// queue must tell clients when to come back. The single worker is wedged on
// a stalling oracle and the one queue slot filled, so the next HTTP
// submission deterministically bounces.
func TestAuditQueueFullCarriesRetryAfter(t *testing.T) {
	s := newAuditNode(t, AuditConfig{Workers: 1, MaxQueued: 1})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	info, err := s.prov.Info("clean")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	stall := newStallOracle(info.Classes, info.InputDim, release)
	if _, err := s.Audits().Submit("stall", "", stall, 1); err != nil {
		t.Fatal(err)
	}
	// Once the worker has picked the wedged job up, this second submission
	// takes the single queue slot and stays there.
	<-stall.entered
	if _, err := s.Audits().Submit("stall", "", stall, 2); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Post(srv.URL+"/v1/models/clean/audits", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if hint := parseRetryAfter(resp.Header.Get("Retry-After")); hint < time.Second {
		t.Fatalf("429 without a usable Retry-After header (%q)", resp.Header.Get("Retry-After"))
	}
}

// TestRetryBackoffBounds pins the client backoff shape: capped exponential,
// upper-half jitter, Retry-After hints floor the wait but never lower it.
func TestRetryBackoffBounds(t *testing.T) {
	for i := 0; i < 100; i++ {
		if d := retryBackoff(1, 0); d < retryBaseBackoff/2 || d > retryBaseBackoff {
			t.Fatalf("attempt 1 backoff %v outside [%v, %v]", d, retryBaseBackoff/2, retryBaseBackoff)
		}
		// Attempt 30 would be ~35 minutes uncapped; the ceiling must hold.
		if d := retryBackoff(30, 0); d < retryMaxBackoff/2 || d > retryMaxBackoff {
			t.Fatalf("attempt 30 backoff %v outside [%v, %v]", d, retryMaxBackoff/2, retryMaxBackoff)
		}
		if d := retryBackoff(1, 3*time.Second); d != 3*time.Second {
			t.Fatalf("Retry-After hint not floored: %v, want 3s", d)
		}
		if d := retryBackoff(1, time.Millisecond); d > retryBaseBackoff {
			t.Fatalf("tiny hint raised backoff to %v", d)
		}
	}
	for h, want := range map[string]time.Duration{"3": 3 * time.Second, "0": 0, "-2": 0, "soon": 0, "": 0} {
		if got := parseRetryAfter(h); got != want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestClientRetries429HonoringRetryAfter makes the endpoint push back once
// with Retry-After: 1 — the old client treated 429 as terminal; the fixed
// one must retry, and no sooner than the server asked.
func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	ctx := context.Background()
	s := NewServer(testModel(t), ServerConfig{})
	t.Cleanup(s.Close)
	h := s.Handler()
	var pushed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/predict") && pushed.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c, err := Dial(ctx, srv.URL, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 16)
	rng.New(4).Uniform(x.Data, 0, 1)
	start := time.Now()
	if _, err := c.Predict(ctx, x); err != nil {
		t.Fatalf("429 with Retry-After was not retried: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry after %v ignored the 1s Retry-After hint", elapsed)
	}
}
