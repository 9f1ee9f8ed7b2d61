package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bprom/internal/audit"
	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/mlaas"
	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// Fixed load shape. All loops are closed: the consumers these workloads
// stand for — audit oracles, the gateway, fleet CLIs — each wait for a
// reply before sending again. An open-loop arrival workload belongs to the
// issue that first makes a queueing claim.
const (
	predictClients  = 2
	auditSubmitters = 2
	remoteAuditors  = 1
	warmPredicts    = 200
	auditPoll       = 10 * time.Millisecond
	remoteMaxBatch  = 128
)

// env is what a workload is given to run in.
type env struct {
	in      *inputs
	workDir string  // scratch directory for journals, inside the checkout
	tr      *tracer // nil on an untraced run: no wrapper is installed at all
}

// httpClient returns the *http.Client the stack's mlaas clients use. On an
// untraced run that is nil — mlaas.Client's own default, the transport the
// CLIs ship with — and on a traced run the same default transport under a
// timing wrapper.
func (e *env) httpClient() (*http.Client, *traceTransport) {
	if e.tr == nil {
		return nil, nil
	}
	tt := &traceTransport{t: e.tr, next: http.DefaultTransport}
	return &http.Client{Transport: tt}, tt
}

func (e *env) wrap(name string) func(http.Handler) http.Handler {
	if e.tr == nil {
		return nil
	}
	return func(h http.Handler) http.Handler { return traceHandler(e.tr, name, h) }
}

// workload is one of the benchmark's four traffic mixes.
type workload interface {
	workers() int
	// kinds is the length of the schedule's cycle of distinct operations.
	kinds() int
	// audits reports whether an operation is an audit: the workload then
	// needs the detector artifact and the reference verdicts.
	audits() bool
	// setup builds the stack as production would, dials, cold-loads and
	// warms up. Its wall time is setup_s.
	setup(ctx context.Context, e *env) error
	// op is one operation of the untraced closed loop.
	op(ctx context.Context, worker, seq int) (int64, error)
	// teardown stops every listener, server and store of the stack.
	teardown() error
	// check runs after teardown: verification that needs the stack at
	// rest, and the per-layer metrics that fall out of it.
	check(m metrics) error
	// traced runs the workload's traced phase for dur and fills the
	// per-layer metrics that come from it.
	traced(ctx context.Context, dur time.Duration, base phase, m metrics) (phase, error)
}

var workloadOrder = []string{"predict_direct", "predict_gateway", "audit_server", "audit_remote"}

var workloadWhy = map[string]string{
	"predict_direct":  "narrow 8-row predicts straight at one node: JSON wire, net/http and the engine queue are most of the op, the forward pass a fifth; gateway, audit and journal code is never run",
	"predict_gateway": "the same predicts through mlaas-gateway over two nodes: differs from predict_direct only by the hop, so the gateway's decode, route, re-encode and node round trip are the whole delta",
	"audit_server":    "durable server-side audits with tenancy, quota and a journal on disk: forward pass, prompt search, checkpoint encode and fsync do the work while the wire carries only polls",
	"audit_remote":    "black-box audits over HTTP, each 432-row generation sent as 4 parallel 128-row chunks: the paper's setting, and predict_direct's wire layer used with few wide bodies instead of many narrow ones",
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "predict_direct":
		return &predictWorkload{}, nil
	case "predict_gateway":
		return &predictWorkload{viaGateway: true}, nil
	case "audit_server":
		return &auditServerWorkload{}, nil
	case "audit_remote":
		return &auditRemoteWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadOrder)
}

var errMismatch = errors.New("output differs from the in-process reference")

// --- predict_direct / predict_gateway ---------------------------------------

type predictWorkload struct {
	viaGateway bool

	e       *env
	nodes   []*node
	gw      *gateway
	tt      *traceTransport // load generator → first hop
	clients [][]*mlaas.Client
	direct  [][]*mlaas.Client // straight at node 0, for hop_over_direct
	cold    []time.Duration
}

func (w *predictWorkload) workers() int { return predictClients }
func (w *predictWorkload) kinds() int   { return len(w.e.in.ids) }
func (w *predictWorkload) audits() bool { return false }

func (w *predictWorkload) setup(ctx context.Context, e *env) error {
	*w = predictWorkload{viaGateway: w.viaGateway, e: e}
	nNodes := 1
	if w.viaGateway {
		nNodes = 2
	}
	for i := 0; i < nNodes; i++ {
		n, err := startNode(e.in.zooDir, nodeConfig{wrap: e.wrap(spanHandler)})
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, n)
	}
	base := w.nodes[0].url
	if w.viaGateway {
		hc, _ := e.httpClient()
		gw, err := startGateway(ctx, w.nodes, hc, e.wrap(spanGateway))
		if err != nil {
			return err
		}
		w.gw = gw
		base = gw.url
	}
	var hc *http.Client
	hc, w.tt = e.httpClient()
	dial := func(base string) ([][]*mlaas.Client, error) {
		cs := make([][]*mlaas.Client, predictClients)
		for c := range cs {
			for _, id := range e.in.ids {
				cl, err := mlaas.DialModel(ctx, base, id, mlaas.ClientConfig{HTTPClient: hc})
				if err != nil {
					return nil, err
				}
				cs[c] = append(cs[c], cl)
			}
		}
		return cs, nil
	}
	var err error
	if w.clients, err = dial(base); err != nil {
		return err
	}
	if w.viaGateway && e.tr != nil {
		if w.direct, err = dial(w.nodes[0].url); err != nil {
			return err
		}
	}
	// Warm-up: the first request for each model is its cold load.
	for i := 0; i < warmPredicts; i++ {
		t0 := time.Now()
		if _, err := w.predict(ctx, w.clients, i%predictClients, i); err != nil {
			return fmt.Errorf("warm-up predict %d: %w", i, err)
		}
		if i < len(e.in.ids) {
			w.cold = append(w.cold, time.Since(t0))
		}
	}
	return nil
}

// predict sends request seq of the fixed schedule — model seq mod 8, input
// tensor from the seeded pool — and verifies the reply bit for bit.
func (w *predictWorkload) predict(ctx context.Context, clients [][]*mlaas.Client, worker, seq int) (int64, error) {
	in := w.e.in
	mi := seq % len(in.ids)
	ri := (seq / len(in.ids)) % len(in.reqs)
	ctx, op := w.e.tr.start(ctx, spanOp)
	cctx, cl := w.e.tr.start(ctx, spanClient)
	cl.setRows(predictRows)
	out, err := clients[worker][mi].Predict(cctx, in.reqs[ri])
	cl.end()
	if err == nil && !sameBits(out, in.want[in.ids[mi]][ri]) {
		err = fmt.Errorf("predict %s request %d: %w", in.ids[mi], ri, errMismatch)
	}
	op.end()
	return predictRows, err
}

// op continues the schedule where warm-up left it.
func (w *predictWorkload) op(ctx context.Context, worker, seq int) (int64, error) {
	return w.predict(ctx, w.clients, worker, warmPredicts+seq)
}

func (w *predictWorkload) teardown() error {
	var err error
	if w.gw != nil {
		err = w.gw.stop()
	}
	for _, n := range w.nodes {
		if nerr := n.stop(); nerr != nil && err == nil {
			err = nerr
		}
	}
	return err
}

func (w *predictWorkload) check(metrics) error { return nil }

func (w *predictWorkload) traced(ctx context.Context, dur time.Duration, base phase, m metrics) (phase, error) {
	if w.viaGateway {
		// The same traffic straight at one of the gateway's own nodes, in
		// this very invocation: the base of hop_over_direct.
		direct := drive(ctx, predictClients, dur/2, func(ctx context.Context, worker, seq int) (int64, error) {
			return w.predict(ctx, w.direct, worker, warmPredicts+seq)
		})
		if direct.failed > 0 {
			return direct, fmt.Errorf("direct phase: %w", direct.firstErr)
		}
		m.set("mlaas.gateway.hop_over_direct", base.p50ms(w.kinds())/direct.p50ms(w.kinds()))
	}
	w.tt.inflightMax.Store(0)
	w.e.tr.on.Store(true)
	p := drive(ctx, predictClients, dur, w.op)
	w.e.tr.on.Store(false)

	m.set("mlaas.client.inflight_max", float64(w.tt.inflightMax.Load()))
	m.set("mlaas.registry.cold_load_ms", median(msOf(w.cold)))
	resident := 0
	for _, n := range w.nodes {
		resident += n.reg.ResidentBytes()
	}
	m.set("mlaas.registry.resident_mb", float64(resident)/1e6)
	return p, nil
}

// --- audit_server -------------------------------------------------------------

type auditServerWorkload struct {
	e       *env
	n       *node
	jobsDir string
	tt      *traceTransport
	clients []map[string]*mlaas.Client

	mu                      sync.Mutex
	spent                   int64 // Σ verdict queries of every audit this stack ran, warm-up included
	done                    int   // audits this stack completed, warm-up included
	submit, queueWait, runT []time.Duration
	setups                  int
}

func (w *auditServerWorkload) workers() int { return auditSubmitters }
func (w *auditServerWorkload) kinds() int   { return len(w.e.in.audits) }
func (w *auditServerWorkload) audits() bool { return true }

func (w *auditServerWorkload) setup(ctx context.Context, e *env) error {
	setups := w.setups + 1
	*w = auditServerWorkload{e: e, setups: setups}
	w.jobsDir = filepath.Join(e.workDir, fmt.Sprintf("jobs-%d", setups))
	n, err := startNode(e.in.zooDir, nodeConfig{jobsDir: w.jobsDir, detPath: e.in.detPath, wrap: e.wrap(spanHandler)})
	if err != nil {
		return err
	}
	w.n = n
	var hc *http.Client
	hc, w.tt = e.httpClient()
	for s := 0; s < auditSubmitters; s++ {
		cs := make(map[string]*mlaas.Client)
		for _, id := range auditTargets {
			c, err := mlaas.DialModel(ctx, n.url, id, mlaas.ClientConfig{APIKey: benchKey, AuditPoll: auditPoll, HTTPClient: hc})
			if err != nil {
				return err
			}
			cs[id] = c
		}
		w.clients = append(w.clients, cs)
	}
	if _, err := w.audit(ctx, 0, 0); err != nil {
		return fmt.Errorf("warm-up audit: %w", err)
	}
	w.submit, w.queueWait, w.runT = nil, nil, nil
	if w.tt != nil {
		w.tt.requests.Store(0)
	}
	return nil
}

// op continues the audit cycle where the warm-up audit left it.
func (w *auditServerWorkload) op(ctx context.Context, worker, seq int) (int64, error) {
	return w.audit(ctx, worker, 1+seq)
}

// audit submits audit seq of the cycle as a durable server-side job, waits
// for its verdict and verifies it.
func (w *auditServerWorkload) audit(ctx context.Context, worker, seq int) (int64, error) {
	in := w.e.in
	k := in.audits[seq%len(in.audits)]
	c := w.clients[worker][k.Model]
	t0 := time.Now()
	job, err := c.AuditModel(ctx, k.InspectID)
	if err != nil {
		return 0, err
	}
	submit := time.Since(t0)
	if job, err = c.WaitAudit(ctx, job.ID); err != nil {
		return 0, err
	}
	if job.State != audit.StateDone || job.Verdict == nil {
		return 0, fmt.Errorf("audit %s of %s ended %s: %s", job.ID, k.Model, job.State, job.Error)
	}
	w.mu.Lock()
	w.spent += job.Verdict.Queries
	w.done++
	w.submit = append(w.submit, submit)
	w.queueWait = append(w.queueWait, job.Started.Sub(job.Created))
	w.runT = append(w.runT, job.Finished.Sub(job.Started))
	w.mu.Unlock()
	if !sameVerdict(*job.Verdict, in.refs[k]) {
		return job.Verdict.Queries, fmt.Errorf("audit %v: verdict %+v, reference %+v: %w", k, *job.Verdict, in.refs[k], errMismatch)
	}
	return job.Verdict.Queries, nil
}

func (w *auditServerWorkload) teardown() error {
	if w.n == nil {
		return nil
	}
	return w.n.stop()
}

// check reopens the journal the run left behind — the read side beside the
// write side: every job must replay as done, and the tenant's replayed spend
// must equal the sum of the verdicts' query counts, each query billed
// exactly once.
func (w *auditServerWorkload) check(m metrics) error {
	t0 := time.Now()
	st, err := jobstore.Open(w.jobsDir)
	if err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	m.set("jobstore.replay_ms", msec(time.Since(t0)))
	defer st.Close()
	jobs := st.Jobs()
	if len(jobs) != w.done {
		return fmt.Errorf("journal replays %d jobs, the run completed %d", len(jobs), w.done)
	}
	for _, j := range jobs {
		if j.State != jobstore.StateDone {
			return fmt.Errorf("journal job %d replays as %s, want done", j.ID, j.State)
		}
	}
	if got := st.TenantSpend()[benchTenant]; got != w.spent {
		return fmt.Errorf("tenant %s billed %d queries, verdicts total %d", benchTenant, got, w.spent)
	}
	return nil
}

// traced runs the audit the way audit.Manager does, from outside it: the
// same public entry points — Detector.InspectResumable with hooks,
// Checkpoint.Encode and Store.Checkpoint from the checkpoint hook, the
// lifecycle appends around them — against the same registry engines behind
// the same quota wrapper, with a span around each.
func (w *auditServerWorkload) traced(ctx context.Context, dur time.Duration, base phase, m metrics) (phase, error) {
	in, tr := w.e.in, w.e.tr
	// What the untraced phase measured of the real job path.
	m.set("audit.submit_ms", mean(msOf(w.submit)))
	m.set("audit.queue_wait_ms", mean(msOf(w.queueWait)))
	realRun := mean(msOf(w.runT))
	m.set("audit.run_ms", realRun)
	// Every request beyond the one submit per audit is a poll.
	m.set("audit.poll_requests_per_audit", float64(w.tt.requests.Load())/float64(len(w.runT))-1)
	m.set("bprom.detector_load_ms", msec(w.n.detLoad))
	m.set("mlaas.registry.resident_mb", float64(w.n.reg.ResidentBytes())/1e6)

	store, err := jobstore.Open(filepath.Join(w.e.workDir, "jobs-traced"))
	if err != nil {
		return phase{}, err
	}
	defer store.Close()
	tenant, _ := w.n.tenancy.Lookup(benchTenant)
	info := make(map[string]mlaas.ModelInfo)
	for _, id := range auditTargets {
		if info[id], err = w.n.reg.Info(id); err != nil {
			return phase{}, err
		}
	}
	var jobSeq atomic.Uint64
	var appends []time.Duration
	var ckptBytes, generations atomic.Int64
	var oracles []*timedOracle
	var mu sync.Mutex

	tr.on.Store(true)
	p := drive(ctx, auditSubmitters, dur, func(ctx context.Context, worker, seq int) (int64, error) {
		k := in.audits[(1+seq)%len(in.audits)]
		ctx, op := tr.start(ctx, spanOp)
		defer op.end()
		o := &timedOracle{t: tr, name: spanOracle, inner: jobstore.WrapOracle(tenant,
			&registryOracle{reg: w.n.reg, info: info[k.Model]})}
		id := jobSeq.Add(1)
		lifecycle := func(f func() error) error {
			_, l := tr.start(ctx, spanLifecycle)
			defer l.end()
			return f()
		}
		if err := lifecycle(func() error { return store.Create(id, k.Model, benchTenant, k.InspectID, time.Now()) }); err != nil {
			return 0, err
		}
		if err := lifecycle(func() error { return store.Start(id) }); err != nil {
			return 0, err
		}
		var hookErr error
		lastGen := time.Now()
		v, err := in.det.InspectResumable(ctx, o, k.InspectID, func(bprom.Progress) {}, func(c *bprom.Checkpoint) {
			_, le := tr.start(ctx, spanCkptEnc)
			blob, err := c.Encode()
			le.end()
			if err == nil {
				_, la := tr.start(ctx, spanCkptApp)
				t0 := time.Now()
				err = store.Checkpoint(id, c.Generation, c.Queries, blob)
				d := time.Since(t0)
				la.end()
				mu.Lock()
				appends = append(appends, d)
				mu.Unlock()
			}
			if err != nil && hookErr == nil {
				hookErr = err
			}
			ckptBytes.Add(int64(len(blob)))
			generations.Add(1)
			lastGen = time.Now()
		}, nil)
		if err == nil {
			err = hookErr
		}
		if err != nil {
			return 0, err
		}
		tr.tail(ctx, lastGen)
		err = lifecycle(func() error {
			return store.Done(id, jobstore.VerdictRecord{
				Score: v.Score, Threshold: v.Threshold, Backdoored: v.Backdoored,
				PromptedAcc: v.PromptedAcc, Queries: v.Queries,
			}, time.Now())
		})
		mu.Lock()
		oracles = append(oracles, o)
		mu.Unlock()
		if err == nil && (!sameVerdict(v, in.refs[k]) || v.Queries != o.rows.Load()) {
			err = fmt.Errorf("traced audit %v: verdict %+v over %d oracle rows, reference %+v: %w", k, v, o.rows.Load(), in.refs[k], errMismatch)
		}
		return v.Queries, err
	})
	tr.on.Store(false)
	if p.ok() == 0 {
		return p, nil
	}

	audits := float64(p.ok())
	oracleMetrics(m, oracles)
	p.generations = int(generations.Load())
	gens := float64(p.generations)
	m.set("bprom.ckpt_bytes", float64(ckptBytes.Load())/gens)
	m.set("jobstore.ckpt_append_us", mean(msOf(appends))*1000)
	m.set("jobstore.ckpt_append_p95_us", quantile(msOf(appends), 0.95)*1000)
	m.set("jobstore.journal_kb_per_audit", float64(store.Stats().JournalBytes)/1024/audits)
	m.set("jobstore.compactions", float64(store.Stats().Compactions))
	m.set("audit.manager_overhead_ms", realRun-mean(p.latMs()))
	return p, nil
}

// registryOracle is the benchmark's copy of the oracle a server-side audit
// queries: the registry's own engines, no HTTP, chunked to the registry's
// per-request row limit.
type registryOracle struct {
	reg  *mlaas.Registry
	info mlaas.ModelInfo
}

var _ oracle.BatchLimiter = (*registryOracle)(nil)

func (o *registryOracle) NumClasses() int { return o.info.Classes }
func (o *registryOracle) InputDim() int   { return o.info.InputDim }
func (o *registryOracle) MaxBatch() int   { return o.reg.MaxBatch() }

func (o *registryOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	n, maxBatch := x.Dim(0), o.reg.MaxBatch()
	if n <= maxBatch {
		out, _, err := o.reg.Predict(ctx, o.info.ID, x, false)
		return out, err
	}
	out := tensor.New(n, o.info.Classes)
	for start := 0; start < n; start += maxBatch {
		end := min(start+maxBatch, n)
		chunk := tensor.FromSlice(x.Data[start*o.info.InputDim:end*o.info.InputDim], end-start, o.info.InputDim)
		probs, _, err := o.reg.Predict(ctx, o.info.ID, chunk, false)
		if err != nil {
			return nil, err
		}
		copy(out.Data[start*o.info.Classes:end*o.info.Classes], probs.Data)
	}
	return out, nil
}

// oracleMetrics fills the per-audit oracle counts from the audits' wrappers.
func oracleMetrics(m metrics, oracles []*timedOracle) {
	var calls, rows, busy int64
	for _, o := range oracles {
		calls += o.calls.Load()
		rows += o.rows.Load()
		busy += o.busy.Load()
	}
	n := float64(len(oracles))
	m.set("oracle.calls_per_audit", float64(calls)/n)
	m.set("oracle.rows_per_audit", float64(rows)/n)
	m.set("oracle.busy_ms_per_audit", msec(time.Duration(busy))/n)
}

// --- audit_remote -------------------------------------------------------------

type auditRemoteWorkload struct {
	e       *env
	n       *node
	tt      *traceTransport
	det     *bprom.Detector
	detLoad time.Duration
	clients map[string]*mlaas.Client
}

func (w *auditRemoteWorkload) workers() int { return remoteAuditors }
func (w *auditRemoteWorkload) kinds() int   { return len(w.e.in.audits) }
func (w *auditRemoteWorkload) audits() bool { return true }

func (w *auditRemoteWorkload) setup(ctx context.Context, e *env) error {
	*w = auditRemoteWorkload{e: e, clients: make(map[string]*mlaas.Client)}
	t0 := time.Now()
	det, err := bprom.LoadFile(e.in.detPath)
	if err != nil {
		return err
	}
	w.det, w.detLoad = det, time.Since(t0)
	if w.n, err = startNode(e.in.zooDir, nodeConfig{maxBatch: remoteMaxBatch, wrap: e.wrap(spanHandler)}); err != nil {
		return err
	}
	var hc *http.Client
	hc, w.tt = e.httpClient()
	for _, id := range auditTargets {
		c, err := mlaas.DialModel(ctx, w.n.url, id, mlaas.ClientConfig{HTTPClient: hc})
		if err != nil {
			return err
		}
		w.clients[id] = c
	}
	if _, _, err := w.audit(ctx, 0, nil); err != nil {
		return fmt.Errorf("warm-up audit: %w", err)
	}
	return nil
}

// op continues the audit cycle where the warm-up audit left it.
func (w *auditRemoteWorkload) op(ctx context.Context, worker, seq int) (int64, error) {
	_, rows, err := w.audit(ctx, 1+seq, nil)
	return rows, err
}

// audit runs one client-side audit against the node and verifies it. With
// onGen set it goes through InspectResumable so the hook sees every
// generation boundary; the verdict is bit-identical either way.
func (w *auditRemoteWorkload) audit(ctx context.Context, seq int, onGen func()) (*timedOracle, int64, error) {
	in := w.e.in
	k := in.audits[seq%len(in.audits)]
	o := &timedOracle{t: w.e.tr, name: spanClient, inner: w.clients[k.Model]}
	var v bprom.Verdict
	var err error
	if onGen == nil {
		v, err = w.det.Inspect(ctx, o, k.InspectID)
	} else {
		v, err = w.det.InspectResumable(ctx, o, k.InspectID, nil, func(*bprom.Checkpoint) { onGen() }, nil)
	}
	if err != nil {
		return o, 0, err
	}
	if !sameVerdict(v, in.refs[k]) || v.Queries != o.rows.Load() {
		return o, v.Queries, fmt.Errorf("remote audit %v: verdict %+v over %d oracle rows, reference %+v: %w", k, v, o.rows.Load(), in.refs[k], errMismatch)
	}
	return o, v.Queries, nil
}

func (w *auditRemoteWorkload) teardown() error {
	if w.n == nil {
		return nil
	}
	return w.n.stop()
}

func (w *auditRemoteWorkload) check(metrics) error { return nil }

func (w *auditRemoteWorkload) traced(ctx context.Context, dur time.Duration, base phase, m metrics) (phase, error) {
	tr := w.e.tr
	var oracles []*timedOracle
	generations := 0
	w.tt.inflightMax.Store(0)
	tr.on.Store(true)
	p := drive(ctx, remoteAuditors, dur, func(ctx context.Context, worker, seq int) (int64, error) {
		ctx, op := tr.start(ctx, spanOp)
		defer op.end()
		lastGen := time.Now()
		o, rows, err := w.audit(ctx, 1+seq, func() { generations++; lastGen = time.Now() })
		if err == nil {
			tr.tail(ctx, lastGen)
			oracles = append(oracles, o) // one auditor: no lock needed
		}
		return rows, err
	})
	tr.on.Store(false)
	if p.ok() == 0 {
		return p, nil
	}
	p.generations = generations
	oracleMetrics(m, oracles)
	m.set("mlaas.client.inflight_max", float64(w.tt.inflightMax.Load()))
	m.set("bprom.detector_load_ms", msec(w.detLoad))
	m.set("mlaas.registry.resident_mb", float64(w.n.reg.ResidentBytes())/1e6)
	m.set("audit.remote_over_local", base.p50ms(w.kinds())/1000/mean(w.e.in.refSeconds))
	return p, nil
}
