// Package audit turns BPROM detection into a platform service: a Manager
// owns one trained (typically artifact-loaded) detector and runs audit JOBS
// against hosted models on a bounded worker pool — the paper's
// train-once / audit-many deployment. Submissions enqueue instantly and
// return a job id; jobs progress queued → running → done / failed, report
// live progress (CMA-ES generation plus oracle query count), and can be
// cancelled at any point via their context. The HTTP face of this package
// is the /v1/audits route family in internal/mlaas (docs/API.md).
//
// Inspections execute in-process on the worker goroutines, so their tensor
// work lands on the one process-wide shared kernel pool (internal/tensor)
// alongside the serving path: audit concurrency is bounded by Workers
// without oversubscribing CPUs.
package audit

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"bprom/internal/binio"
	"bprom/internal/bprom"
	"bprom/internal/jobstore"
	"bprom/internal/oracle"
)

// State is an audit job's lifecycle phase.
type State string

// The job lifecycle: Queued → Running → Done | Failed. Cancelled and
// drained jobs end as Failed with a descriptive error.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Job is an immutable snapshot of one audit job. The JSON tags are its wire
// form in the audit-job API (docs/API.md).
type Job struct {
	// ID identifies the job on the /v1/audits routes.
	ID string `json:"id"`
	// ModelID names the audited model.
	ModelID string `json:"model_id"`
	// InspectID seeds the inspection's RNG stream: the same detector,
	// model, and InspectID reproduce the same verdict bit-for-bit.
	InspectID int `json:"inspect_id"`
	// State is the lifecycle phase at snapshot time.
	State State `json:"state"`
	// Progress is the latest inspection progress report.
	Progress bprom.Progress `json:"progress"`
	// Verdict is set once State is StateDone.
	Verdict *bprom.Verdict `json:"verdict,omitempty"`
	// Error describes the failure once State is StateFailed.
	Error string `json:"error,omitempty"`
	// ErrorCode is a machine-readable failure class ("quota_exhausted" when
	// the tenant's oracle-query budget ran out mid-job; empty otherwise).
	ErrorCode string `json:"error_code,omitempty"`
	// Tenant attributes the job to the API-key tenant that submitted it
	// ("" when the server runs without tenancy).
	Tenant string `json:"tenant,omitempty"`
	// Node names the serving node running the job when the job was routed
	// through a gateway ("" for jobs on the node itself). Gateway job ids
	// are namespaced "{node}.{id}" so id collisions across nodes cannot
	// alias; Node carries the same routing fact as a first-class field.
	Node string `json:"node,omitempty"`
	// MigratedFrom names the job this one resumed from when a gateway
	// migrated it off a dead node (the source's namespaced gateway id,
	// e.g. "n0.a3"; empty for jobs that never moved).
	MigratedFrom string `json:"migrated_from,omitempty"`
	// Created, Started and Finished stamp the lifecycle transitions.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// Config tunes a Manager.
type Config struct {
	// Workers bounds concurrently running audits. Each audit is one
	// in-process black-box inspection (thousands of oracle queries);
	// its tensor kernels run on the shared process-wide pool. Default 2.
	Workers int
	// MaxQueued bounds jobs waiting for a worker; Submit fails with
	// ErrQueueFull beyond it. Default 64.
	MaxQueued int
	// Store, when non-nil, makes jobs durable: every lifecycle transition is
	// journaled, running jobs checkpoint their search state at generation
	// boundaries, and NewManager re-enqueues the journal's non-terminal jobs
	// so they resume bit-exactly after a restart. The caller owns the store
	// and must close it only after Close returns.
	Store *jobstore.Store
	// OracleFor rebuilds the black-box oracle for a journaled job at resume
	// time (submission-time oracles do not survive the process). Required
	// when Store is set; a resumed job whose oracle cannot be rebuilt fails
	// with the returned error.
	OracleFor func(modelID, tenant string) (oracle.Oracle, error)
	// CheckpointEvery journals every Nth generation checkpoint (default 1:
	// every completed generation). Larger values trade restart granularity
	// for journal traffic; the latest snapshot is still flushed on graceful
	// Close regardless.
	CheckpointEvery int
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
}

// ErrQueueFull reports a Submit against a full job queue. The HTTP layer
// maps it to 429.
var ErrQueueFull = errors.New("audit: job queue full")

// ErrClosed reports an operation on a closed Manager.
var ErrClosed = errors.New("audit: manager closed")

// ErrUnknownJob reports a job id the manager does not hold. The HTTP layer
// maps it to 404.
var ErrUnknownJob = errors.New("audit: unknown job")

// ErrNoCheckpoint reports an ExportCheckpoint against a job that has not
// completed a generation yet (nothing to resume from). The HTTP layer maps
// it to 204: the job exists, there is just no state to ship.
var ErrNoCheckpoint = errors.New("audit: job has no checkpoint yet")

// ErrTerminalJob reports an ExportCheckpoint against a finished job —
// terminal jobs have verdicts, not resumable state.
var ErrTerminalJob = errors.New("audit: job already terminal")

// BadCheckpointCode is the machine-readable error_code of a job that failed
// because its resume checkpoint (journaled or handed over the wire by a
// migrating gateway) did not decode. The job fails cleanly instead of
// re-running from scratch, which would double-spend the tenant's already-
// journaled queries.
const BadCheckpointCode = "bad_checkpoint"

// job is the mutable behind-the-scenes record; snap and the checkpoint
// fields are guarded by mu.
type job struct {
	mu     sync.Mutex
	snap   Job
	sus    oracle.Oracle
	ctx    context.Context
	cancel context.CancelFunc

	// num is the journal's numeric job ID (snap.ID is "a<num>").
	num uint64
	// resume is the journal checkpoint a rebooted job restarts from.
	resume *bprom.Checkpoint
	// ckpt is the latest in-memory checkpoint; journaledGen tracks the
	// newest generation already written to the journal, so the graceful
	// Close flush and the periodic journaling never double-write.
	ckpt         *bprom.Checkpoint
	journaledGen int
}

func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

// Manager schedules audit jobs over one trained detector. All methods are
// safe for concurrent use.
type Manager struct {
	det    *bprom.Detector
	cfg    Config
	root   context.Context
	cancel context.CancelFunc
	wake   chan struct{} // nudges idle workers; buffered, best-effort
	wg     sync.WaitGroup
	now    func() time.Time

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for stable listings
	pending []*job   // queued jobs, FIFO; deleting removes immediately
	seq     int
	resumed int
	closed  bool
	// changed is closed and replaced whenever a job turns terminal or is
	// deleted: the one wake-up every Wait blocks on.
	changed chan struct{}
}

// NewManager starts a Manager with cfg.Workers worker goroutines over det.
// With a Store configured it first replays the journal: terminal jobs are
// restored to the listing, non-terminal ones are re-enqueued (resuming from
// their last checkpoint when they have one), and the ID sequence continues
// past every journaled ID. Call Close to stop the workers.
func NewManager(det *bprom.Detector, cfg Config) (*Manager, error) {
	cfg.defaults()
	if cfg.Store != nil && cfg.OracleFor == nil {
		return nil, fmt.Errorf("audit: Config.Store requires Config.OracleFor to rebuild oracles on resume")
	}
	root, cancel := context.WithCancel(context.Background())
	m := &Manager{
		det:     det,
		cfg:     cfg,
		root:    root,
		cancel:  cancel,
		wake:    make(chan struct{}, cfg.Workers),
		now:     time.Now,
		jobs:    make(map[string]*job),
		changed: make(chan struct{}),
	}
	if cfg.Store != nil {
		if err := m.replay(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// replay rebuilds the job table from the journal. Cancelled jobs were
// removed from the listing by Delete and stay gone; done/failed jobs return
// as retained terminal snapshots; queued/running jobs are re-enqueued.
func (m *Manager) replay() error {
	for _, rec := range m.cfg.Store.Jobs() {
		if rec.State == jobstore.StateCancelled {
			continue
		}
		ctx, cancel := context.WithCancel(m.root)
		j := &job{
			num: rec.ID,
			snap: Job{
				ID:        "a" + strconv.FormatUint(rec.ID, 10),
				ModelID:   rec.ModelID,
				InspectID: rec.InspectID,
				Tenant:    rec.Tenant,
				State:     StateQueued,
				Created:   rec.Created,
			},
			ctx:          ctx,
			cancel:       cancel,
			journaledGen: rec.Generation,
		}
		switch rec.State {
		case jobstore.StateDone:
			j.snap.State = StateDone
			j.snap.Finished = rec.Finished
			v := bprom.Verdict(*rec.Verdict) // field-for-field the journal's record
			j.snap.Verdict = &v
			j.snap.Progress = bprom.Progress{Queries: v.Queries}
			cancel()
		case jobstore.StateFailed:
			j.snap.State = StateFailed
			j.snap.Finished = rec.Finished
			j.snap.Error = rec.Error
			j.snap.ErrorCode = rec.ErrorCode
			j.snap.Progress = bprom.Progress{Generation: rec.Generation, Queries: rec.Queries}
			cancel()
		default: // queued or running: re-enqueue
			j.snap.Progress = bprom.Progress{Generation: rec.Generation, Queries: rec.Queries}
			if len(rec.Checkpoint) > 0 {
				c, err := bprom.DecodeCheckpoint(rec.Checkpoint)
				if err != nil {
					// A checkpoint that does not decode is real corruption
					// below the CRC layer; fail the job rather than silently
					// re-running it from scratch (which would double-spend
					// the tenant's journaled queries).
					m.failResumed(j, fmt.Sprintf("resume checkpoint corrupt: %v", err), BadCheckpointCode)
					continue
				}
				j.resume = c
				j.ckpt = c
			}
			sus, err := m.cfg.OracleFor(rec.ModelID, rec.Tenant)
			if err != nil {
				m.failResumed(j, fmt.Sprintf("rebuilding oracle for resume: %v", err), "")
				continue
			}
			j.sus = sus
			m.pending = append(m.pending, j)
		}
		m.jobs[j.snap.ID] = j
		m.order = append(m.order, j.snap.ID)
	}
	m.seq = int(m.cfg.Store.NextSeq()) - 1
	m.resumed = len(m.pending)
	return nil
}

// failResumed registers a job that is born failed — a journal job whose
// checkpoint or oracle cannot be rebuilt at replay, or a migrated-in job
// with a corrupt frame — in memory and, when durable, in the journal. The
// caller holds m.mu (or is the constructor).
func (m *Manager) failResumed(j *job, msg, code string) {
	j.cancel()
	j.snap.State = StateFailed
	j.snap.Error = msg
	j.snap.ErrorCode = code
	j.snap.Finished = m.now()
	if m.cfg.Store != nil {
		_ = m.cfg.Store.Fail(j.num, msg, code, j.snap.Progress.Queries, j.snap.Finished)
	}
	m.jobs[j.snap.ID] = j
	m.order = append(m.order, j.snap.ID)
}

// Resumed reports how many journal jobs were re-enqueued at construction.
func (m *Manager) Resumed() int { return m.resumed }

// Detector exposes the managed detector (serving layers use it for
// compatibility checks at submission time).
func (m *Manager) Detector() *bprom.Detector { return m.det }

// Submit enqueues an audit of sus (the black-box oracle for modelID) and
// returns the queued job snapshot. inspectID selects the inspection RNG
// stream; pass a negative value to use the job's submission sequence
// number, which keeps distinct jobs on distinct streams automatically.
// tenant attributes the job for quota accounting and usage reporting (""
// without tenancy). With a Store configured the job is journaled before
// Submit returns: an acknowledged submission survives a crash.
func (m *Manager) Submit(modelID, tenant string, sus oracle.Oracle, inspectID int) (Job, error) {
	return m.SubmitResume(modelID, tenant, sus, inspectID, nil, "")
}

// ExportCheckpoint returns the newest in-memory checkpoint of a
// queued/running job — the state a gateway ships to a healthy replica when
// the node owning the job dies. Jobs that have not completed a generation
// yet fail with ErrNoCheckpoint; terminal jobs with ErrTerminalJob. The
// caller must treat the returned checkpoint as read-only.
func (m *Manager) ExportCheckpoint(id string) (*bprom.Checkpoint, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.snap.State.Terminal() {
		return nil, fmt.Errorf("%w: %q is %s", ErrTerminalJob, id, j.snap.State)
	}
	if j.ckpt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoCheckpoint, id)
	}
	return j.ckpt, nil
}

// SubmitResume is the one enqueue path. Beyond Submit it takes a
// wire-shipped checkpoint to resume from (a binio CRC frame around an
// encoded bprom.Checkpoint; nil starts at generation zero) and source, the
// job this one continues (the gateway's namespaced id of a migrated job,
// landing in the snapshot's MigratedFrom; "" for a fresh submission).
//
// The frame is validated here, not at the transport: a corrupt or
// truncated checkpoint ACCEPTS the submission and immediately fails the
// job with error code BadCheckpointCode, so a migrating supervisor sees
// one uniform outcome (a terminal job) instead of a rejected request it
// would be tempted to retry. Resuming from scratch on corruption is
// deliberately not attempted — the checkpointed queries are already in the
// source node's ledger, and re-spending them silently would double-charge
// the tenant.
func (m *Manager) SubmitResume(modelID, tenant string, sus oracle.Oracle, inspectID int, frame []byte, source string) (Job, error) {
	var ckpt *bprom.Checkpoint
	var decErr error
	if len(frame) > 0 {
		if payload, err := binio.DecodeFrame(frame); err != nil {
			decErr = err
		} else if c, err := bprom.DecodeCheckpoint(payload); err != nil {
			decErr = err
		} else {
			ckpt = c
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	if len(m.pending) >= m.cfg.MaxQueued {
		m.mu.Unlock()
		return Job{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	m.seq++
	if inspectID < 0 {
		inspectID = m.seq
	}
	ctx, cancel := context.WithCancel(m.root)
	j := &job{
		num: uint64(m.seq),
		snap: Job{
			ID:           fmt.Sprintf("a%d", m.seq),
			ModelID:      modelID,
			InspectID:    inspectID,
			Tenant:       tenant,
			State:        StateQueued,
			Created:      m.now(),
			MigratedFrom: source,
		},
		sus:    sus,
		ctx:    ctx,
		cancel: cancel,
	}
	if ckpt != nil {
		j.resume = ckpt
		j.ckpt = ckpt
		j.snap.Progress = bprom.Progress{Generation: ckpt.Generation, Queries: ckpt.Queries}
	}
	if m.cfg.Store != nil {
		if err := m.cfg.Store.Create(j.num, modelID, tenant, inspectID, j.snap.Created); err != nil {
			m.seq--
			m.mu.Unlock()
			cancel()
			return Job{}, fmt.Errorf("audit: journaling submission: %w", err)
		}
	}
	if decErr != nil {
		m.failResumed(j, fmt.Sprintf("migrated checkpoint corrupt: %v", decErr), BadCheckpointCode)
		m.mu.Unlock()
		return j.snapshot(), nil
	}
	if ckpt != nil && m.cfg.Store != nil {
		// Journal the carried-over checkpoint before the ack: if this node
		// crashes before the job runs, the next boot still resumes from the
		// migrated state, and the tenant's carried spend stays on the ledger.
		if blob, err := ckpt.Encode(); err == nil {
			if m.cfg.Store.Checkpoint(j.num, ckpt.Generation, ckpt.Queries, blob) == nil {
				j.journaledGen = ckpt.Generation
			}
		}
	}
	// The acknowledgement is the job as submitted: once it is pending, a
	// worker may start it before this goroutine reads it again.
	ack := j.snap
	m.pending = append(m.pending, j)
	m.jobs[j.snap.ID] = j
	m.order = append(m.order, j.snap.ID)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return ack, nil
}

// RetryAfter estimates how long a submitter rejected with ErrQueueFull
// should wait before trying again: the current queue depth spread over the
// worker pool, read as "queue positions a worker tick frees", clamped to
// [1s, 60s]. It is a coarse backpressure hint — audits vary in duration —
// but it scales with real backlog instead of leaving every rejected client
// to guess (the HTTP layer emits it as the 429 Retry-After header).
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	queued := len(m.pending)
	m.mu.Unlock()
	secs := (queued + m.cfg.Workers - 1) / m.cfg.Workers
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// Len reports how many jobs the manager holds (queued, running, and
// retained terminal jobs) without snapshotting them.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Get returns the job's current snapshot.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.snapshot(), nil
}

// Wait blocks until the job is terminal and returns that snapshot. When ctx
// ends or the manager closes first it returns the job's current snapshot, so
// a caller tells the outcomes apart by State.Terminal. An unknown job, or
// one deleted while Wait blocks, is ErrUnknownJob.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	for {
		// changed is read before the snapshot: a job turning terminal or
		// deleted after the snapshot closes this very channel (notify runs
		// after the change), so no transition can slip between the two.
		m.mu.Lock()
		changed := m.changed
		m.mu.Unlock()
		if snap, err := m.Get(id); err != nil || snap.State.Terminal() {
			return snap, err
		}
		select {
		case <-changed:
			continue
		case <-ctx.Done():
		case <-m.root.Done():
		}
		return m.Get(id)
	}
}

// notify wakes every Wait: call it after a job's terminal state is written
// or after it is removed.
func (m *Manager) notify() {
	m.mu.Lock()
	close(m.changed)
	m.changed = make(chan struct{})
	m.mu.Unlock()
}

// List returns snapshots of every job the manager holds, in submission
// order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Job, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Delete cancels the job via its context — a queued job never starts, a
// running inspection aborts at its next oracle query or context check — and
// removes it from the manager. A deleted queued job releases its queue slot
// immediately. It returns the job's final-as-of-deletion snapshot.
func (m *Manager) Delete(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if ok {
		delete(m.jobs, id)
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		for i, pj := range m.pending {
			if pj == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	m.notify()
	j.cancel()
	// A deleted job is journaled cancelled: it stays out of the listing on
	// the next boot (unlike shutdown, which deliberately leaves no terminal
	// record so the job resumes).
	if m.cfg.Store != nil {
		_ = m.cfg.Store.Cancel(j.num, m.now())
	}
	return j.snapshot(), nil
}

// Close cancels every queued and running job via the shared root context
// and waits for the workers to drain. In-flight inspections abort at their
// next context check and finish as StateFailed; Close returns once every
// worker has exited. Safe to call more than once.
//
// With a Store configured, Close first persists each running job's latest
// in-memory checkpoint (before the context-cancel, so graceful shutdown
// never loses more than the in-flight generation even when CheckpointEvery
// skips journal writes), and deliberately writes no terminal records: the
// journal keeps shutdown-interrupted jobs queued/running so the next boot
// resumes them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	var flush []*job
	if m.cfg.Store != nil {
		for _, id := range m.order {
			flush = append(flush, m.jobs[id])
		}
	}
	m.mu.Unlock()
	for _, j := range flush {
		j.mu.Lock()
		c := j.ckpt
		terminal := j.snap.State.Terminal()
		j.mu.Unlock()
		if c != nil && !terminal {
			m.journalCheckpoint(j, c)
		}
	}
	m.cancel()
	m.wg.Wait()
}

// journalCheckpoint writes c to the journal unless an equal-or-newer
// generation is already there. Races between the periodic journaling and the
// Close flush are benign: the generation guard makes the second write a
// no-op.
func (m *Manager) journalCheckpoint(j *job, c *bprom.Checkpoint) {
	j.mu.Lock()
	if c.Generation <= j.journaledGen {
		j.mu.Unlock()
		return
	}
	j.journaledGen = c.Generation
	j.mu.Unlock()
	blob, err := c.Encode()
	if err != nil {
		return
	}
	// A failed journal append is not fatal to the job: the next checkpoint
	// (or the Close flush) retries with a newer generation.
	_ = m.cfg.Store.Checkpoint(j.num, c.Generation, c.Queries, blob)
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		if j := m.pop(); j != nil {
			m.run(j)
			continue
		}
		select {
		case <-m.root.Done():
			m.failQueued()
			return
		case <-m.wake:
		}
	}
}

// pop takes the oldest queued job, or nil when none is waiting. Workers pop
// before sleeping on wake, so a nudge dropped on a full buffer can never
// strand a job: some worker's next pop finds it.
func (m *Manager) pop() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return nil
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	return j
}

// failQueued marks every still-queued job failed during shutdown, so no
// snapshot is left dangling in StateQueued forever. It races only with
// Delete, which holds m.mu for its pending-list removal.
func (m *Manager) failQueued() {
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, j := range pending {
		j.mu.Lock()
		if !j.snap.State.Terminal() {
			j.snap.State = StateFailed
			j.snap.Error = "audit manager closed before the job ran"
			j.snap.Finished = m.now()
		}
		j.mu.Unlock()
	}
	// No notify: this runs once the root context is cancelled, which has
	// already released every Wait.
}

func (m *Manager) run(j *job) {
	defer m.notify() // the job is terminal after run: wake its waiters
	defer j.cancel() // and release its context
	store := m.cfg.Store
	if err := j.ctx.Err(); err != nil {
		// Deleted (journaled cancelled by Delete) or manager closed (no
		// terminal record on purpose: the job resumes next boot) while
		// queued.
		j.mu.Lock()
		j.snap.State = StateFailed
		j.snap.Error = "audit cancelled before it ran"
		j.snap.Finished = m.now()
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	j.snap.State = StateRunning
	j.snap.Started = m.now()
	inspectID := j.snap.InspectID
	resume := j.resume
	j.mu.Unlock()
	if store != nil {
		_ = store.Start(j.num)
	}

	// The in-memory latest checkpoint is tracked even without a Store: it is
	// what GET /v1/audits/{id}/checkpoint exports, and a storeless node must
	// still hand its jobs to a migrating gateway.
	onCheckpoint := func(c *bprom.Checkpoint) {
		j.mu.Lock()
		j.ckpt = c
		j.mu.Unlock()
		if store != nil && c.Generation%m.cfg.CheckpointEvery == 0 {
			m.journalCheckpoint(j, c)
		}
	}
	v, err := m.det.InspectResumable(j.ctx, j.sus, inspectID, func(p bprom.Progress) {
		j.mu.Lock()
		j.snap.Progress = p
		j.mu.Unlock()
	}, onCheckpoint, resume)

	finished := m.now()
	if err != nil {
		shutdown := m.root.Err() != nil
		cancelled := j.ctx.Err() != nil
		var qe *jobstore.QuotaError
		quota := errors.As(err, &qe)
		j.mu.Lock()
		j.snap.Finished = finished
		j.snap.State = StateFailed
		switch {
		case cancelled:
			j.snap.Error = fmt.Sprintf("audit cancelled: %v", err)
		case quota:
			j.snap.Error = fmt.Sprintf("tenant oracle-query quota exhausted after %d job queries: %v", v.Queries, err)
			j.snap.ErrorCode = "quota_exhausted"
		default:
			j.snap.Error = err.Error()
		}
		j.snap.Progress.Queries = v.Queries
		msg, code, queries := j.snap.Error, j.snap.ErrorCode, v.Queries
		ckpt := j.ckpt
		j.mu.Unlock()
		if store == nil {
			return
		}
		switch {
		case shutdown:
			// Graceful drain: flush the newest checkpoint, write no
			// terminal record — the journal keeps the job running, and the
			// next boot resumes it from exactly here.
			if ckpt != nil {
				m.journalCheckpoint(j, ckpt)
			}
		case cancelled:
			// Deleted mid-run; Delete wrote the cancelled record.
		default:
			_ = store.Fail(j.num, msg, code, queries, finished)
		}
		return
	}

	j.mu.Lock()
	j.snap.Finished = finished
	j.snap.State = StateDone
	j.snap.Verdict = &v
	j.mu.Unlock()
	if store != nil {
		_ = store.Done(j.num, jobstore.VerdictRecord(v), finished)
	}
}
