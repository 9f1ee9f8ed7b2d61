package mlaas

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"testing"

	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// The predict wire path end to end — client encode, socket, node decode,
// engine, reply — with the benchmark workloads' message shape: 432 inputs,
// 10 classes, 8 or 128 rows.

// loopbackModel is a 3×12×12 ResNetLite: wireCols inputs, wireClasses classes.
func loopbackModel(tb testing.TB) *nn.Model {
	tb.Helper()
	m, err := nn.Build(nn.ArchConfig{Arch: nn.ArchResNetLite, C: 3, H: 12, W: 12, NumClasses: wireClasses, Hidden: 32}, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// startLoopback serves m on an httptest node with room for a wide batch and
// dials it with the default transport.
func startLoopback(tb testing.TB, m *nn.Model) *Client {
	tb.Helper()
	s := NewServer(m, ServerConfig{Name: "loopback", MaxBatch: wireWide})
	tb.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	tb.Cleanup(srv.Close)
	c, err := Dial(context.Background(), srv.URL, ClientConfig{Retries: NoRetries})
	if err != nil {
		tb.Fatal(err)
	}
	if c.contentType != ContentTypeBinaryPredict {
		tb.Fatalf("client negotiated %q", c.contentType)
	}
	return c
}

// A node may answer a predict before it has read the body — an unknown
// model, a bad key, a 429 or a 413 all do — while the client's transport is
// still writing it. The client must not hand that body's buffer to its next
// request before the transport is done with it; the race detector reports a
// buffer reused too early as a race with the transport's write loop.
func TestEarlyReplyDoesNotRecycleBodyInFlight(t *testing.T) {
	const goroutines, calls = 8, 50
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			writeJSON(w, http.StatusOK, infoResponse{Classes: wireClasses, InputDim: wireCols, MaxBatch: wireWide, Wire: []string{ContentTypeBinaryPredict}})
			return
		}
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown model"})
	}))
	defer srv.Close()
	ctx := context.Background()
	c, err := Dial(ctx, srv.URL, ClientConfig{Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tensor.New(wireWide, wireCols)
			for range calls {
				var se *StatusError
				if _, err := c.Predict(ctx, x); !errors.As(err, &se) || se.Code != http.StatusNotFound {
					t.Errorf("predict: %v, want a 404", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Over a real socket, what one Predict allocates grows with its rows by no
// more than its one result tensor — the client's output — plus a fixed slack,
// and what one PredictInto into warm storage allocates by no more than the
// slack: the request is encoded into a pooled buffer, written through a
// pooled copy buffer, read into a pooled buffer and decoded into pooled rows;
// the node's engine answers into pooled confidence rows, which are encoded
// into the request's buffer; and the reply is decoded straight into the
// output.
func TestPredictOverSocketAllocsIndependentOfBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and drops pooled buffers at random")
	}
	c := startLoopback(t, loopbackModel(t))
	ctx := context.Background()
	// A collection would empty the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perPredict := func(rows int, into bool) uint64 {
		x := tensor.New(rows, wireCols)
		rng.New(uint64(rows)).Uniform(x.Data, 0, 1)
		dst := tensor.New(rows, wireClasses)
		// Warm the pools and the connection, then take the quietest of a few
		// tries: TotalAlloc is process-wide, and the node runs in it too.
		best := uint64(math.MaxUint64)
		for i := range 15 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if into {
				err = oracle.PredictInto(ctx, c, dst, x)
			} else {
				_, err = c.Predict(ctx, x)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 5 {
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return best
	}
	const slack = 4 << 10
	result := uint64((wireWide - wireNarrow) * wireClasses * 8)
	for _, leg := range []struct {
		into    bool
		name    string
		results uint64
	}{{false, "Predict", result}, {true, "PredictInto", 0}} {
		narrow, wide := perPredict(wireNarrow, leg.into), perPredict(wireWide, leg.into)
		t.Logf("%s: %d rows allocate %d bytes, %d rows %d", leg.name, wireNarrow, narrow, wireWide, wide)
		if wide > narrow+leg.results+slack {
			t.Errorf("%s: a %d-row call allocates %d bytes, a %d-row one %d: %d more than its result tensors' %d (slack %d)",
				leg.name, wireWide, wide, wireNarrow, narrow, int64(wide)-int64(narrow)-int64(leg.results), leg.results, slack)
		}
	}
}

// keepingProvider answers like a model while fail is nil. While fail is set
// it keeps the rows and the confidence storage it is handed, as a predictJob
// still queued for a worker would, writes the storage as that job's worker
// would, and returns fail.
type keepingProvider struct {
	singleProvider
	fail error
	kept []keptPredict
}

// keptPredict is what one failed predict handed its provider.
type keptPredict struct{ x, dst *tensor.Tensor }

// keptFill is what a late worker writes into a failed predict's confidences.
const keptFill = -1

func (p *keepingProvider) predict(_ context.Context, _ string, x, dst *tensor.Tensor, _ bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	if p.fail != nil {
		dst.Fill(keptFill)
		p.kept = append(p.kept, keptPredict{x, dst})
		return nil, nil, p.fail
	}
	dst.Fill(1 / float64(p.info.Classes))
	return dst, nil, nil
}
func (p *keepingProvider) MaxBatch() int { return wireNarrow }
func (p *keepingProvider) Close()        {}

// Decoded rows and confidence storage go back to the pool only after a
// successful predict: what a failed one handed to the provider — cancelled,
// or the engine closed under it — may still be read or written by a queued
// job, so later predicts never decode into those rows nor answer into that
// storage.
func TestFailedPredictNeverRecyclesRows(t *testing.T) {
	prov := &keepingProvider{}
	prov.info = ModelInfo{ID: DefaultModelID, Classes: wireClasses, InputDim: wireCols, Loaded: true}
	h := newNodeServer(prov, ScreenAnnotate).Handler()
	// A collection would empty the pool, and hand later predicts fresh rows
	// whatever the handler put back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	post := func(ct string, fill float64) int {
		x := tensor.New(wireNarrow, wireCols)
		x.Fill(fill)
		body, err := appendPredictRequest(nil, ct, x.Data, wireCols, false)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		r.Header.Set("Content-Type", ct)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code
	}
	var want [][]float64
	fill := 0.0
	for _, ct := range wireCodecs {
		for _, fail := range []error{context.Canceled, context.DeadlineExceeded, errEngineClosed} {
			prov.fail = fail
			for range 4 {
				fill++
				if code := post(ct, fill); code != http.StatusServiceUnavailable {
					t.Fatalf("%s, %v: status %d, want 503", ct, fail, code)
				}
				want = append(want, slices.Clone(prov.kept[len(prov.kept)-1].x.Data))
			}
			prov.fail = nil
			for range 8 {
				fill++
				if code := post(ct, fill); code != http.StatusOK {
					t.Fatalf("%s: status %d after a failed predict", ct, code)
				}
			}
		}
	}
	for i, k := range prov.kept {
		if !slices.Equal(k.x.Data, want[i]) {
			t.Errorf("rows kept by failed predict %d were overwritten by a later one", i)
		}
		if k.dst.Len() != wireNarrow*wireClasses || slices.ContainsFunc(k.dst.Data, func(f float64) bool { return f != keptFill }) {
			t.Errorf("confidence storage kept by failed predict %d was handed to a later one", i)
		}
	}
}

// BenchmarkPredictLoopback is one Client.Predict through the whole serving
// path on loopback — binary frame, net/http, the node's decode, the engine
// queue and micro-batcher, a forward pass — from every proc at once, at the
// benchmark workloads' two request widths. Its audit leg is one prompt-search
// generation as audit_remote sends it: 432 rows through PredictInto into a
// reused tensor, four parallel chunks of at most 128 rows.
func BenchmarkPredictLoopback(b *testing.B) {
	m := loopbackModel(b)
	c := startLoopback(b, m)
	ctx := context.Background()
	for _, rows := range []int{wireNarrow, wireWide} {
		x := tensor.New(rows, wireCols)
		rng.New(4).Uniform(x.Data, 0, 1)
		b.Run(strconv.Itoa(rows)+"rows", func(b *testing.B) {
			b.SetBytes(binaryRequestSize(rows, wireCols))
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.Predict(ctx, x); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
	const auditRows = 432
	x := tensor.New(auditRows, wireCols)
	rng.New(5).Uniform(x.Data, 0, 1)
	dst := tensor.New(auditRows, wireClasses)
	b.Run("audit432rows", func(b *testing.B) {
		b.SetBytes(binaryRequestSize(auditRows, wireCols))
		b.ReportAllocs()
		for range b.N {
			if err := c.PredictInto(ctx, dst, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
