package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// Tracing from outside: spans are recorded by the benchmark's own wrappers
// around each layer's public entry points — an http.RoundTripper under
// mlaas.Client, an http.Handler around Server.Handler(), an oracle.Oracle
// around the audited model — never by code inside internal/. Parentage
// travels in the request context (mlaas.Client and the gateway derive their
// node requests from the caller's context) and, where a real socket cuts
// the context, in the spanHeader request header.

// Span names, one per layer boundary.
const (
	spanOp        = "op"             // one workload operation, load generator's view
	spanClient    = "client.predict" // mlaas.Client.Predict / oracle call over HTTP
	spanRoundTrip = "http.roundtrip" // http.RoundTripper.RoundTrip, client side
	spanHandler   = "server.handler" // node Server.Handler()
	spanGateway   = "gateway.handler"
	spanOracle    = "oracle.predict" // in-process oracle call
	spanCkptEnc   = "bprom.ckpt_encode"
	spanCkptApp   = "jobstore.ckpt_append"
	spanLifecycle = "jobstore.lifecycle"
	spanTail      = "bprom.tail"
)

const spanHeader = "X-Bench-Span"

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root; spans of one operation share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Counts taken at the same boundary: model rows in an oracle call,
	// body bytes each way on a round trip.
	Rows      int   `json:"rows,omitempty"`
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	// Host is the round trip's target, for the gateway's per-node share.
	Host string `json:"host,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing: the wrappers stay installed during
// the untraced phase of a traced run, so both phases run the same stack.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

type spanRef struct{ id, op uint64 }

type ctxSpanKey struct{}

func refFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(ctxSpanKey{}).(spanRef)
	return r
}

// live is a started span; end records it.
type live struct {
	t *tracer
	s span
}

// start opens a span under the span carried by ctx (a root when there is
// none) and returns a context carrying the new span. On a disabled tracer
// it returns ctx and a nil *live, whose methods are no-ops.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *live) {
	if !t.enabled() {
		return ctx, nil
	}
	return t.startUnder(ctx, refFrom(ctx), name)
}

func (t *tracer) startUnder(ctx context.Context, parent spanRef, name string) (context.Context, *live) {
	id := t.next.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	l := &live{t: t, s: span{ID: id, Parent: parent.id, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
	return context.WithValue(ctx, ctxSpanKey{}, spanRef{id: id, op: op}), l
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.stamp()
	l.record()
}

// stamp fixes the span's end; record files it. A round trip does the two
// apart: it ends when the headers are in but is filed, with its response
// size, when the caller has drained the body.
func (l *live) stamp() { l.s.End = int64(time.Since(l.t.epoch)) }

func (l *live) record() {
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.s)
	l.t.mu.Unlock()
}

func (l *live) setRows(n int) {
	if l != nil {
		l.s.Rows = n
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tail records the bprom.tail span of the operation in ctx: from the last
// generation boundary to now, when the verdict is in.
func (t *tracer) tail(ctx context.Context, from time.Time) {
	_, l := t.start(ctx, spanTail)
	if l != nil {
		l.s.Start = int64(from.Sub(t.epoch))
		l.end()
	}
}

// --- span arithmetic -------------------------------------------------------

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (parallel chunk requests) and may stick out of the parent (a handler that
// outlives the round trip that caused it): the covered part is the union of
// the child intervals clipped to the parent.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within [lo, hi].
func covered(lo, hi int64, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// --- wrappers --------------------------------------------------------------

// traceHandler wraps a server's handler with a span named name whose parent
// is the span named in the request's spanHeader. The span also rides the
// request context, so requests the handler makes (the gateway's node calls)
// become its children.
func traceHandler(t *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		ctx, l := t.startUnder(r.Context(), parseRef(r.Header.Get(spanHeader)), name)
		next.ServeHTTP(w, r.WithContext(ctx))
		l.end()
	})
}

func formatRef(r spanRef) string {
	return strconv.FormatUint(r.id, 10) + "/" + strconv.FormatUint(r.op, 10)
}

func parseRef(h string) spanRef {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}
	}
	id, _ := strconv.ParseUint(a, 10, 64)
	op, _ := strconv.ParseUint(b, 10, 64)
	return spanRef{id: id, op: op}
}

// traceTransport times RoundTrip under the span in the request's context
// and forwards its own span id in spanHeader. It also keeps the counts that
// exist with tracing off: requests sent and the peak number in flight.
type traceTransport struct {
	t    *tracer
	next http.RoundTripper

	requests    atomic.Int64
	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.requests.Add(1)
	cur := tt.inflight.Add(1)
	defer tt.inflight.Add(-1)
	for {
		m := tt.inflightMax.Load()
		if cur <= m || tt.inflightMax.CompareAndSwap(m, cur) {
			break
		}
	}
	if !tt.t.enabled() {
		return tt.next.RoundTrip(req)
	}
	ctx, l := tt.t.start(req.Context(), spanRoundTrip)
	// A RoundTripper must not modify the caller's request.
	out := req.Clone(ctx)
	out.Header.Set(spanHeader, formatRef(refFrom(ctx)))
	l.s.Host = req.URL.Host
	if req.ContentLength > 0 {
		l.s.ReqBytes = req.ContentLength
	}
	resp, err := tt.next.RoundTrip(out)
	l.stamp() // headers are in; the caller reads (and is charged for) the body
	if err != nil {
		l.record()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, l: l}
	return resp, nil
}

// countingBody sizes the response body and files the round trip's span when
// the caller closes it (mlaas.Client always does).
type countingBody struct {
	io.ReadCloser
	l *live
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.l.s.RespBytes += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.l.record()
	return b.ReadCloser.Close()
}

// timedOracle is the benchmark-owned oracle wrapper: it counts calls and
// rows exactly (tracing on or off), accumulates busy time, and records one
// span per call under the span in the call's context.
type timedOracle struct {
	inner oracle.Oracle
	t     *tracer
	name  string

	calls, rows atomic.Int64
	busy        atomic.Int64 // nanoseconds
}

var (
	_ oracle.Oracle       = (*timedOracle)(nil)
	_ oracle.BatchLimiter = (*timedOracle)(nil)
)

func (o *timedOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	ctx, l := o.t.start(ctx, o.name)
	l.setRows(x.Dim(0))
	t0 := time.Now()
	out, err := o.inner.Predict(ctx, x)
	o.busy.Add(int64(time.Since(t0)))
	l.end()
	if err == nil {
		o.calls.Add(1)
		o.rows.Add(int64(x.Dim(0)))
	}
	return out, err
}

func (o *timedOracle) NumClasses() int { return o.inner.NumClasses() }
func (o *timedOracle) InputDim() int   { return o.inner.InputDim() }

// MaxBatch passes the wrapped oracle's limit through, so wrapping does not
// change how vp batches its calls.
func (o *timedOracle) MaxBatch() int {
	if bl, ok := o.inner.(oracle.BatchLimiter); ok {
		return bl.MaxBatch()
	}
	return 0
}
