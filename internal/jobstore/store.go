package jobstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bprom/internal/binio"
)

// journalName is the journal file inside the jobs directory.
const journalName = "jobs.journal"

// State is a job's replayed lifecycle state.
type State string

// Job lifecycle states as persisted in the journal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// VerdictRecord is the persisted subset of a bprom verdict.
type VerdictRecord struct {
	Score       float64
	Threshold   float64
	Backdoored  bool
	PromptedAcc float64
	Queries     int64
}

// JobRecord is the replayed state of one job. All fields are value types or
// owned copies; callers may retain returned records.
type JobRecord struct {
	ID        uint64
	ModelID   string
	Tenant    string
	InspectID int
	State     State
	Created   time.Time
	Finished  time.Time

	// Generation/Queries track the latest checkpoint (or the terminal
	// record's spend for finished jobs).
	Generation int
	Queries    int64
	// Checkpoint is the latest opaque search-state blob (nil when the job
	// never checkpointed).
	Checkpoint []byte

	Verdict   *VerdictRecord
	Error     string
	ErrorCode string
}

// clone deep-copies a record so Store internals never alias caller memory.
func (j *JobRecord) clone() *JobRecord {
	c := *j
	c.Checkpoint = append([]byte(nil), j.Checkpoint...)
	if j.Verdict != nil {
		v := *j.Verdict
		c.Verdict = &v
	}
	return &c
}

// Stats is the job_store section of /v1/healthz.
type Stats struct {
	// JournalBytes is the current size of the journal file.
	JournalBytes int64 `json:"journal_bytes"`
	// JobsResumed counts jobs that were replayed in a non-terminal state at
	// the last Open — the jobs the audit manager re-enqueued on boot.
	JobsResumed int `json:"jobs_resumed"`
	// LastCompaction is when the journal was last rewritten to its live
	// prefix (RFC 3339; zero before the first compaction).
	LastCompaction time.Time `json:"last_compaction"`
	// Compactions counts live (size-triggered) compactions since Open. The
	// boot-time compaction is not counted: it happens on every Open.
	Compactions int `json:"compactions,omitempty"`
}

// Store is a journal-backed job store. All methods are safe for concurrent
// use. Appends are synchronous: when a transition method returns, the record
// is in the journal (and fsynced), so an acknowledged transition survives a
// crash.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	jobs    map[uint64]*JobRecord
	order   []uint64 // creation order, for stable listings
	bytes   int64
	resumed int
	compact time.Time

	// Size-triggered live compaction: once an append pushes the journal past
	// compactEvery bytes AND past twice compactFloor (its size right after
	// the last live compaction — the hysteresis that keeps a live state near
	// the threshold from thrashing), it is rewritten to its live prefix in
	// place, so a long-lived server churning checkpoints for months cannot
	// grow the journal without bound. compactions feeds Stats.
	compactEvery int64
	compactFloor int64
	compactions  int

	// frame is the store's one record buffer: every journal frame is built
	// in it in place (header, then the encoded record) and written from it,
	// so an append allocates nothing beyond the record's replayed state.
	frame []byte
}

// minCompactBytes is the journal size below which live compaction never
// runs; boot-time compaction handles anything smaller.
const minCompactBytes = 64 << 20

// Open replays (and compacts) the journal in dir, creating it if needed. A
// missing or empty journal boots clean; a crash-truncated tail is dropped
// silently; a CRC mismatch fails with binio.ErrCorrupt.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	path := filepath.Join(dir, journalName)
	payloads, err := replayFile(path)
	if err != nil {
		return nil, err
	}
	s := &Store{path: path, jobs: make(map[uint64]*JobRecord), compactEvery: minCompactBytes}
	for i, payload := range payloads {
		if err := s.apply(payload); err != nil {
			return nil, fmt.Errorf("jobstore: journal record %d: %w", i, err)
		}
	}
	for _, id := range s.order {
		if !s.jobs[id].State.Terminal() {
			s.resumed++
		}
	}
	// Compact: rewrite the journal to the minimal record set that replays
	// to the same live state, then append from there. Compacting on every
	// boot keeps the journal proportional to job history, not to checkpoint
	// churn (each job contributes at most one checkpoint record after
	// compaction).
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.f = f
	if fi, err := f.Stat(); err == nil {
		s.bytes = fi.Size()
	}
	return s, nil
}

// Close closes the journal file. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Stats returns the current job_store health section.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		JournalBytes: s.bytes, JobsResumed: s.resumed,
		LastCompaction: s.compact, Compactions: s.compactions,
	}
}

// NextSeq returns the smallest job ID larger than every journaled ID, so a
// rebooted manager continues the ID sequence instead of colliding.
func (s *Store) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max uint64
	for id := range s.jobs {
		if id > max {
			max = id
		}
	}
	return max + 1
}

// Jobs returns all replayed jobs in creation order (deep copies).
func (s *Store) Jobs() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// TenantSpend sums journaled oracle-query spend per tenant: each job
// contributes its terminal spend, or its latest checkpointed spend while
// still in flight. This seeds the tenancy ledger on boot, so quota
// accounting survives restarts along with the jobs themselves.
func (s *Store) TenantSpend() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	spend := make(map[string]int64)
	for _, j := range s.jobs {
		if j.Tenant == "" {
			continue
		}
		spend[j.Tenant] += j.Queries
	}
	return spend
}

// --- transitions ----------------------------------------------------------------------

// Create journals a new job in StateQueued.
func (s *Store) Create(id uint64, modelID, tenant string, inspectID int, created time.Time) error {
	return s.append(recCreate, &JobRecord{ID: id, ModelID: modelID, Tenant: tenant, InspectID: inspectID, Created: created})
}

// Start journals the queued→running transition.
func (s *Store) Start(id uint64) error {
	return s.append(recStart, &JobRecord{ID: id})
}

// Checkpoint journals a completed-generation snapshot: the generation count,
// the oracle spend so far, and an opaque resumable search-state blob.
func (s *Store) Checkpoint(id uint64, generation int, queries int64, blob []byte) error {
	return s.append(recCheckpoint, &JobRecord{ID: id, Generation: generation, Queries: queries, Checkpoint: blob})
}

// Done journals successful completion with the verdict.
func (s *Store) Done(id uint64, v VerdictRecord, finished time.Time) error {
	return s.append(recDone, &JobRecord{ID: id, Verdict: &v, Finished: finished})
}

// Fail journals failure with a message, a machine-readable code (may be
// empty), and the queries spent before failing.
func (s *Store) Fail(id uint64, msg, code string, queries int64, finished time.Time) error {
	return s.append(recFailed, &JobRecord{ID: id, Error: msg, ErrorCode: code, Queries: queries, Finished: finished})
}

// Cancel journals user cancellation.
func (s *Store) Cancel(id uint64, finished time.Time) error {
	return s.append(recCancelled, &JobRecord{ID: id, Finished: finished})
}

// append journals one transition: check it against the in-memory state,
// write and fsync the record, and only then fold it in — memory never runs
// ahead of the file, so a failed append can simply be retried.
func (s *Store) append(kind uint32, rec *JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("jobstore: store is closed")
	}
	if err := s.check(kind, rec.ID); err != nil {
		return err
	}
	frame, err := s.buildFrame(kind, rec)
	if err != nil {
		return err
	}
	_, err = s.f.Write(frame)
	if err == nil {
		err = s.f.Sync()
	}
	if err != nil {
		// A short write leaves a torn frame that the next append would bury
		// mid-file, where replay reports corruption: cut back to the last
		// good length.
		if terr := s.f.Truncate(s.bytes); terr != nil {
			err = fmt.Errorf("%w (truncating the torn record: %v)", err, terr)
		}
		return fmt.Errorf("jobstore: appending journal record: %w", err)
	}
	s.bytes += int64(len(frame))
	if err := s.apply(frame[binio.FrameHeaderSize:]); err != nil {
		return err
	}
	if s.bytes >= s.compactEvery && s.bytes >= 2*s.compactFloor {
		return s.compactLive()
	}
	return nil
}

// buildFrame encodes kind's record for j as one frame in s.frame
// (binio.ReserveFrame / SealFrame) and returns it; it is valid until the
// next call. The caller holds s.mu, or owns s outright during Open.
func (s *Store) buildFrame(kind uint32, j *JobRecord) ([]byte, error) {
	frame, err := appendRecord(binio.ReserveFrame(s.frame[:0]), kind, j)
	s.frame = frame[:0]
	if err != nil {
		return nil, err
	}
	if err := binio.SealFrame(frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// compactLive rewrites the journal in place and swings the open append
// handle onto the new file (the rename leaves s.f pointing at the unlinked
// old inode). The caller holds s.mu and has already durably appended its
// record, so a failure to *rewrite* is non-fatal — the journal just stays
// big and the next append retries — but a failure to *reopen* after the
// rename would leave appends going to the unlinked inode, which is silent
// data loss; that poisons the store instead.
func (s *Store) compactLive() error {
	if err := s.compactLocked(); err != nil {
		return nil
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f = nil
		old.Close()
		return fmt.Errorf("jobstore: reopening journal after compaction: %w", err)
	}
	old.Close()
	s.f = f
	if fi, err := f.Stat(); err == nil {
		s.bytes = fi.Size()
	}
	s.compactFloor = s.bytes
	s.compactions++
	return nil
}

// check refuses a record the in-memory state cannot take.
func (s *Store) check(kind uint32, id uint64) error {
	_, exists := s.jobs[id]
	switch {
	case kind < recCreate || kind > recCancelled:
		return fmt.Errorf("unknown record kind %d", kind)
	case kind == recCreate && exists:
		return fmt.Errorf("duplicate create for job %d", id)
	case kind != recCreate && !exists:
		return fmt.Errorf("transition %d for unknown job %d", kind, id)
	}
	return nil
}

// apply is the one decoder: it folds one record payload into the in-memory
// state. Replay and live append both go through it, so replay(journal) ==
// live state by construction. A record that fails to decode changes nothing.
func (s *Store) apply(payload []byte) error {
	r := binio.NewReader(bytes.NewReader(payload))
	unixNano := func() time.Time { return time.Unix(0, int64(r.U64())) }
	kind, id := r.U32(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if err := s.check(kind, id); err != nil {
		return err
	}
	if kind == recCreate {
		j := &JobRecord{
			ID: id, ModelID: r.String(), Tenant: r.String(),
			InspectID: int(int64(r.U64())), State: StateQueued, Created: unixNano(),
		}
		if err := r.Err(); err != nil {
			return err
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		return nil
	}
	next := *s.jobs[id]
	switch kind {
	case recStart:
		next.State = StateRunning
	case recCheckpoint:
		next.Generation, next.Queries, next.Checkpoint = int(r.U64()), int64(r.U64()), r.Blob()
	case recDone:
		v := &VerdictRecord{Score: r.F64(), Threshold: r.F64(), Backdoored: r.Bool(), PromptedAcc: r.F64(), Queries: int64(r.U64())}
		next.Verdict, next.Queries = v, v.Queries
		next.State, next.Finished, next.Checkpoint = StateDone, unixNano(), nil
	case recFailed:
		next.Error, next.ErrorCode, next.Queries = r.String(), r.String(), int64(r.U64())
		next.State, next.Finished, next.Checkpoint = StateFailed, unixNano(), nil
	case recCancelled:
		next.State, next.Finished, next.Checkpoint = StateCancelled, unixNano(), nil
	}
	if err := r.Err(); err != nil {
		return err
	}
	*s.jobs[id] = next
	return nil
}

// liveKinds lists the minimal record sequence that replays to j's state:
// create (+start +latest checkpoint) for a live job, create + terminal for
// a finished one.
func liveKinds(j *JobRecord) []uint32 {
	kinds := []uint32{recCreate}
	if j.State == StateRunning {
		kinds = append(kinds, recStart)
	}
	if !j.State.Terminal() && j.Checkpoint != nil {
		kinds = append(kinds, recCheckpoint)
	}
	switch j.State {
	case StateDone:
		kinds = append(kinds, recDone)
	case StateFailed:
		kinds = append(kinds, recFailed)
	case StateCancelled:
		kinds = append(kinds, recCancelled)
	}
	return kinds
}

// writeLive appends every job's liveKinds, re-encoded from memory, to w.
func (s *Store) writeLive(w io.Writer) error {
	for _, id := range s.order {
		j := s.jobs[id]
		for _, kind := range liveKinds(j) {
			frame, err := s.buildFrame(kind, j)
			if err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactLocked rewrites the journal to writeLive's minimal record set.
// Atomic via tmp + rename.
func (s *Store) compactLocked() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: compacting: %w", err)
	}
	err = s.writeLive(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobstore: compacting: %w", err)
	}
	s.compact = time.Now()
	return nil
}
