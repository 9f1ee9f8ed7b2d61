package mlaas

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"bprom/internal/audit"
)

// Audit-job migration: the gateway supervises every audit it places and,
// when the owning node dies, re-homes the job onto the next healthy replica
// in placement order with the newest exported checkpoint attached. The
// resumed job pre-charges the checkpoint's query count into its progress
// counter, so the migrated verdict is bit-identical to an uninterrupted run
// and the tenant ledger never double-charges the queries already spent.
//
// Ownership stays at-most-one: the supervisor only migrates after the
// owner's mark-down has survived a full grace window (a flapping node that
// recovers inside it resets the clock), and when a migrated-away owner
// later returns, its stale local copy of the job is cancelled best-effort.

// MigrationConfig tunes the gateway's audit-job migration supervisor.
type MigrationConfig struct {
	// Enabled turns the supervisor on. Off by default: migration implies
	// the gateway may re-submit work under its own credential, which an
	// operator must opt into.
	Enabled bool
	// Grace is how long a node must stay marked down before its jobs
	// migrate. Mark-down already requires MarkDownAfter consecutive probe
	// failures; the grace window on top keeps a flapping node (down one
	// probe, up the next) from triggering duplicate work. Default 10s.
	Grace time.Duration
	// Interval is the sweep period. Defaults to the gateway's
	// HealthInterval so ownership decisions move at the same cadence as
	// the health picture they depend on.
	Interval time.Duration
	// APIKey is the credential the supervisor presents on its own calls —
	// checkpoint polls, resume submissions, stale-copy cancellations.
	// Against tenant-enabled nodes it must be a `service`-flagged key:
	// resuming a migrated job attributes spend to the job's original
	// tenant, which nodes only allow from a service credential. Scoped to
	// the supervisor on purpose — proxied caller traffic keeps the
	// caller's own bearer token (or none) and never inherits this one.
	APIKey string

	// backoffBase and backoffMax bound the capped, jittered exponential
	// backoff after a failed migration pass. The supervisor never sleeps
	// inside a sweep (one stubborn job must not delay every other tracked
	// job): a job whose attempts all failed is deferred, and later sweeps
	// skip it until the backoff deadline passes. Defaults 100ms / 2s; only
	// tests set them.
	backoffBase, backoffMax time.Duration
	// forwardTTL bounds the supervisor's migration bookkeeping: a forward
	// chain entry is dropped once its target job has been out of
	// supervision (finished, failed, or deleted) for this long, and a
	// pending stale-copy cancellation against a node that never returns is
	// aged out the same way — without it both grow for the gateway's
	// lifetime under churn. Default 15m; only tests set it.
	forwardTTL time.Duration
}

const (
	// migrateMaxAttempts bounds re-submission attempts per job per sweep; a
	// job that exhausts them stays tracked and is retried next sweep.
	migrateMaxAttempts = 3
	// migrateAttemptTimeout bounds one re-submission attempt (the POST
	// carrying the checkpoint frame).
	migrateAttemptTimeout = 10 * time.Second
)

func (c *MigrationConfig) defaults(healthInterval time.Duration) {
	if c.Grace <= 0 {
		c.Grace = 10 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = healthInterval
		if c.Interval <= 0 {
			c.Interval = 2 * time.Second
		}
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 100 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 2 * time.Second
	}
	if c.forwardTTL <= 0 {
		c.forwardTTL = 15 * time.Minute
	}
}

// trackedJob is one live audit under supervision. The identity fields
// (tenant, inspectID) are what make the migrated job the *same* job: the
// resume submission carries them so the verdict stream and the ledger
// attribution survive the move.
type trackedJob struct {
	gwID      string // namespaced gateway id ("n0.a3")
	node      *gatewayNode
	localID   string // node-local id ("a3")
	modelID   string
	inspectID int
	tenant    string
	frame     []byte // newest exported checkpoint frame (nil: none yet)
	frameGen  int
	downSince time.Time // zero while the owner is healthy
	attempts  int       // cumulative failed migration attempts (backoff shape)
	nextTry   time.Time // earliest next migration pass (capped-jitter backoff)
}

type staleJob struct {
	node    *gatewayNode
	localID string
	since   time.Time // when the cancellation became pending (forwardTTL aging)
}

// forward is one migration forward-chain entry. seen is the last time the
// chain's terminal job was still under supervision; once the job leaves
// (terminal or deleted) the entry ages out after forwardTTL.
type forward struct {
	to   string
	seen time.Time
}

type supervisor struct {
	g   *Gateway
	cfg MigrationConfig

	sweepMu sync.Mutex // serializes whole sweeps (ticker vs. test-driven)

	mu        sync.Mutex
	tracked   map[string]*trackedJob
	forwards  map[string]forward // old gateway id -> new gateway id
	stale     []staleJob         // migrated-away copies to cancel if the owner returns
	nMigrated int
	nFailed   int // jobs abandoned on a deterministic target rejection
}

func newSupervisor(g *Gateway, cfg MigrationConfig) *supervisor {
	return &supervisor{
		g:        g,
		cfg:      cfg,
		tracked:  make(map[string]*trackedJob),
		forwards: make(map[string]forward),
	}
}

// track registers a just-submitted (or just-migrated) job for supervision.
// Terminal jobs have nothing left to protect and are skipped.
func (s *supervisor) track(n *gatewayNode, gw audit.Job, modelID string) {
	if gw.State.Terminal() {
		return
	}
	tj := &trackedJob{
		gwID:      gw.ID,
		node:      n,
		localID:   strings.TrimPrefix(gw.ID, n.name+"."),
		modelID:   modelID,
		inspectID: gw.InspectID,
		tenant:    gw.Tenant,
	}
	s.mu.Lock()
	s.tracked[gw.ID] = tj
	s.mu.Unlock()
}

// resolve follows the forward chain left by migrations, so a client polling
// the id it was handed at submission reaches the job wherever it lives now.
// The chain is loop-free by construction (a forward is only ever recorded
// to a freshly created id) but the walk is bounded anyway.
func (s *supervisor) resolve(jobID string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i <= len(s.forwards); i++ {
		next, ok := s.forwards[jobID]
		if !ok {
			break
		}
		jobID = next.to
	}
	return jobID
}

// migrated reports how many jobs have been re-homed.
func (s *supervisor) migrated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nMigrated
}

// failed reports how many jobs were abandoned because every migration
// target would deterministically reject them.
func (s *supervisor) failed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nFailed
}

// snapshot copies the tracked set so the sweep can do network I/O without
// holding the supervisor lock.
func (s *supervisor) snapshot() []*trackedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*trackedJob, 0, len(s.tracked))
	for _, tj := range s.tracked {
		jobs = append(jobs, tj)
	}
	return jobs
}

func (s *supervisor) untrack(gwID string) {
	s.mu.Lock()
	delete(s.tracked, gwID)
	s.mu.Unlock()
}

// sweep runs one supervision pass: poll healthy owners (dropping finished
// jobs, caching the newest checkpoint), start or advance the grace clock on
// down owners, migrate jobs whose owner stayed down past the grace window
// (skipping jobs still inside their failure backoff — the sweep itself
// never sleeps, so one stubborn job cannot delay the rest), cancel stale
// copies on owners that came back after losing a job, and age out
// bookkeeping for jobs and nodes that are gone for good. The background
// loop calls it on Migration.Interval; tests drive it directly.
func (s *supervisor) sweep(ctx context.Context) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.cfg.APIKey != "" {
		ctx = WithAPIKey(ctx, s.cfg.APIKey) // the supervisor's own credential
	}
	now := time.Now()
	for _, tj := range s.snapshot() {
		if tj.node.isHealthy() {
			s.mu.Lock()
			tj.downSince = time.Time{} // flap protection: recovery resets the clock
			tj.attempts = 0
			tj.nextTry = time.Time{}
			s.mu.Unlock()
			s.poll(ctx, tj)
			continue
		}
		s.mu.Lock()
		if tj.downSince.IsZero() {
			tj.downSince = now
		}
		due := now.Sub(tj.downSince) >= s.cfg.Grace && !now.Before(tj.nextTry)
		s.mu.Unlock()
		if due {
			s.migrate(ctx, tj)
		}
	}
	s.cancelStale(ctx)
	s.prune(time.Now())
}

// poll refreshes one healthy owner's view of a job: terminal or unknown
// jobs leave supervision, live ones contribute their newest checkpoint to
// the cache that a later migration would resume from.
func (s *supervisor) poll(ctx context.Context, tj *trackedJob) {
	job, err := tj.node.api.GetAudit(ctx, tj.localID)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			s.untrack(tj.gwID) // deleted on the node; nothing left to supervise
		}
		return // transient: the health probe owns strike bookkeeping
	}
	if job.State.Terminal() {
		s.untrack(tj.gwID)
		return
	}
	exp, err := tj.node.api.ExportCheckpoint(ctx, tj.localID)
	if err != nil {
		return // no checkpoint yet, or transient — keep what we have
	}
	s.mu.Lock()
	if tj.frame == nil || exp.Generation >= tj.frameGen {
		tj.frame = exp.Frame
		tj.frameGen = exp.Generation
	}
	s.mu.Unlock()
}

// migrate re-homes one job: healthy hosting nodes excluding the dead owner
// are tried in placement order (the same order submission uses, so the job
// lands where a fresh submission would), each attempt bounded by
// migrateAttemptTimeout. With no cached checkpoint the job restarts from
// generation zero — identity (tenant, inspect_id) still carries over, so
// the verdict is unchanged.
//
// Failure handling is three-way. A transient failure (transport error,
// 5xx, 429) moves on to the next candidate; when the pass exhausts
// migrateMaxAttempts (or the candidates), the job stays tracked and is
// deferred by a capped jittered backoff — the sweep never sleeps in place,
// so other jobs keep migrating on schedule. A deterministic rejection (any other
// 4xx: oversized body, incompatible model, missing service credential) is
// final — the fleet is uniform, so every replica would answer the same —
// and the job is abandoned, counted in migration_failures instead of being
// retried forever. A target that rejects the checkpoint as CORRUPT is not
// an error at all: the job is created terminal (failed, error_code
// "bad_checkpoint"), the forward is recorded, and the poller sees the
// clean failure — restarting from scratch behind the tenant's back would
// silently re-spend their query budget.
func (s *supervisor) migrate(ctx context.Context, tj *trackedJob) {
	s.mu.Lock()
	resume := AuditResume{Checkpoint: tj.frame, Tenant: tj.tenant, Source: tj.gwID}
	frameGen := tj.frameGen
	inspectID := tj.inspectID
	s.mu.Unlock()

	attempts := 0
	for _, n := range s.g.hostsInOrder(tj.modelID) {
		if n == tj.node || !n.isHealthy() {
			continue
		}
		if attempts >= migrateMaxAttempts {
			break // defer below; a later sweep retries
		}
		attempts++
		job, err := s.resubmit(ctx, n, tj.modelID, inspectID, resume)
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 && se.Code != http.StatusTooManyRequests {
				// Deterministic rejection: the uniform fleet would answer
				// the same everywhere, so retrying can only loop. Abandon
				// the job (it stays wherever the dead owner left it) and
				// surface the give-up in healthz migration_failures.
				s.mu.Lock()
				delete(s.tracked, tj.gwID)
				s.nFailed++
				s.mu.Unlock()
				return
			}
			s.mu.Lock()
			tj.attempts++
			s.mu.Unlock()
			continue
		}
		gw := namespaceJob(n, job)
		now := time.Now()
		s.mu.Lock()
		s.forwards[tj.gwID] = forward{to: gw.ID, seen: now}
		delete(s.tracked, tj.gwID)
		s.nMigrated++
		s.stale = append(s.stale, staleJob{node: tj.node, localID: tj.localID, since: now})
		s.mu.Unlock()
		s.track(n, gw, tj.modelID)
		// Seed the new owner's supervision entry with the frame just
		// resubmitted: if the new owner dies before the first successful
		// checkpoint poll, the next migration still resumes from the
		// carried-over state instead of restarting at generation zero and
		// re-spending queries the ledger already charged.
		s.mu.Lock()
		if ntj := s.tracked[gw.ID]; ntj != nil && ntj.frame == nil {
			ntj.frame = resume.Checkpoint
			ntj.frameGen = frameGen
		}
		s.mu.Unlock()
		return
	}
	if attempts > 0 {
		// Every candidate failed transiently: defer the next pass with
		// capped-jitter backoff instead of sleeping here — the rest of the
		// sweep (and the next ticks) must not wait on this job.
		s.mu.Lock()
		tj.nextTry = time.Now().Add(jitteredBackoff(s.cfg.backoffBase, s.cfg.backoffMax, tj.attempts))
		s.mu.Unlock()
	}
}

// resubmit posts one resume submission to one candidate node.
func (s *supervisor) resubmit(ctx context.Context, n *gatewayNode, modelID string, inspectID int, resume AuditResume) (audit.Job, error) {
	actx, cancel := context.WithTimeout(ctx, migrateAttemptTimeout)
	defer cancel()
	c, err := n.predictClient(actx, modelID)
	if err != nil {
		return audit.Job{}, err
	}
	return c.AuditModelResume(actx, inspectID, resume)
}

// cancelStale enforces at-most-one-owner after the fact: when a node that
// lost a job to migration comes back up, its local copy — orphaned, still
// queued or running — is cancelled so two nodes never burn oracle queries
// on the same audit. Best-effort: a failure leaves the entry for the next
// sweep, and a 4xx (job already terminal or gone on the node) retires it —
// except 429, which a tenancy-enabled node answers to a rate-limited DELETE
// and which is transient, exactly as in migrate.
func (s *supervisor) cancelStale(ctx context.Context) {
	s.mu.Lock()
	pending := s.stale
	s.stale = nil
	s.mu.Unlock()
	var keep []staleJob
	for _, sj := range pending {
		if !sj.node.isHealthy() {
			keep = append(keep, sj)
			continue
		}
		if _, err := sj.node.api.CancelAudit(ctx, sj.localID); err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 && se.Code != http.StatusTooManyRequests {
				continue // already terminal or deleted: settled
			}
			keep = append(keep, sj)
		}
	}
	if keep != nil {
		s.mu.Lock()
		s.stale = append(s.stale, keep...)
		s.mu.Unlock()
	}
}

// prune ages out the supervisor's long-tail bookkeeping so a long-lived
// gateway under node churn holds state proportional to its LIVE jobs, not
// its history. A forward entry stays fresh while its chain's terminal job
// is still supervised (a client may poll the original id for as long as
// the job runs); once the job leaves supervision the entry survives one
// more forwardTTL for terminal-verdict polling and is then dropped. Stale
// cancellations against nodes that never came back age out on the same
// clock — if the node ever does return, its next journal replay is bounded
// by the job's own lifecycle, not by the gateway remembering it.
func (s *supervisor) prune(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, f := range s.forwards {
		// Walk to the chain's terminal id (bounded like resolve).
		target := f.to
		for i := 0; i <= len(s.forwards); i++ {
			next, ok := s.forwards[target]
			if !ok {
				break
			}
			target = next.to
		}
		if _, live := s.tracked[target]; live {
			f.seen = now
			s.forwards[id] = f
		} else if now.Sub(f.seen) > s.cfg.forwardTTL {
			delete(s.forwards, id)
		}
	}
	keep := s.stale[:0]
	for _, sj := range s.stale {
		if now.Sub(sj.since) <= s.cfg.forwardTTL {
			keep = append(keep, sj)
		}
	}
	s.stale = keep
}
