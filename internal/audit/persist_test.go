package audit

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"bprom/internal/jobstore"
	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// gateOracle forwards its first open Predicts to the real model, then parks
// every later one until the context dies — the deterministic way to freeze
// an inspection mid-run so a shutdown lands between generations. With open
// = 1 the first generation's fused query passes and the second parks, so
// the job is held after generation 1 however fast a generation runs.
type gateOracle struct {
	inner oracle.Oracle
	open  atomic.Int64
}

func (o *gateOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if o.open.Add(-1) < 0 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return o.inner.Predict(ctx, x)
}
func (o *gateOracle) NumClasses() int { return o.inner.NumClasses() }
func (o *gateOracle) InputDim() int   { return o.inner.InputDim() }

// openStore opens a job store in dir or fails the test.
func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	s, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKillRestartResumesBitExact is the platform's core durability claim:
// an audit interrupted mid-run by a shutdown resumes on the next boot from
// its last journaled generation and still produces a verdict bit-identical
// to an uninterrupted in-process inspection on the same RNG stream.
func TestKillRestartResumesBitExact(t *testing.T) {
	det, sus := sharedDetector(t)
	dir := t.TempDir()
	oracleFor := func(modelID, tenant string) (oracle.Oracle, error) {
		return oracle.NewModelOracle(sus), nil
	}

	// First life: run the job through generation 1, with its oracle frozen
	// from generation 2 on, then shut down gracefully mid-inspection.
	store1 := openStore(t, dir)
	m1 := mustManager(t, det, Config{Workers: 1, Store: store1, OracleFor: oracleFor})
	gate := &gateOracle{inner: oracle.NewModelOracle(sus)}
	gate.open.Store(1)
	j, err := m1.Submit("m0", "acme", gate, 7)
	if err != nil {
		t.Fatal(err)
	}
	mid := waitState(t, m1, j.ID, func(j Job) bool {
		return j.Progress.Generation >= 1 || j.State.Terminal()
	})
	if mid.State.Terminal() {
		t.Fatalf("job finished before it could be interrupted: %+v", mid)
	}
	m1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the journal must re-enqueue the job (no terminal record
	// was written at shutdown) and finish it bit-exactly.
	store2 := openStore(t, dir)
	defer store2.Close()
	m2 := mustManager(t, det, Config{Workers: 1, Store: store2, OracleFor: oracleFor})
	t.Cleanup(m2.Close)
	if m2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", m2.Resumed())
	}
	final := waitTerminal(t, m2, j.ID)
	if final.State != StateDone || final.Verdict == nil {
		t.Fatalf("resumed job did not complete: %+v", final)
	}
	if final.Tenant != "acme" {
		t.Fatalf("tenant attribution lost across restart: %q", final.Tenant)
	}

	want, err := det.Inspect(context.Background(), oracle.NewModelOracle(sus), 7)
	if err != nil {
		t.Fatal(err)
	}
	if *final.Verdict != want {
		t.Fatalf("resumed verdict %+v differs from uninterrupted inspection %+v", *final.Verdict, want)
	}
}

// TestCloseFlushesFinalCheckpoint pins the graceful-shutdown guarantee on
// its own: with CheckpointEvery far above the generation budget the
// periodic journaling never writes a checkpoint, so the one the next boot
// resumes from can only have come from the Close flush.
func TestCloseFlushesFinalCheckpoint(t *testing.T) {
	det, sus := sharedDetector(t)
	dir := t.TempDir()
	oracleFor := func(modelID, tenant string) (oracle.Oracle, error) {
		return oracle.NewModelOracle(sus), nil
	}

	store1 := openStore(t, dir)
	m1 := mustManager(t, det, Config{Workers: 1, Store: store1, OracleFor: oracleFor, CheckpointEvery: 1000})
	gate := &gateOracle{inner: oracle.NewModelOracle(sus)}
	gate.open.Store(1)
	j, err := m1.Submit("m0", "", gate, 3)
	if err != nil {
		t.Fatal(err)
	}
	mid := waitState(t, m1, j.ID, func(j Job) bool {
		return j.Progress.Generation >= 1 || j.State.Terminal()
	})
	if mid.State.Terminal() {
		t.Fatalf("job finished before it could be interrupted: %+v", mid)
	}
	m1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	recs := store2.Jobs()
	if len(recs) != 1 {
		t.Fatalf("journal holds %d jobs, want 1", len(recs))
	}
	if recs[0].Generation < 1 || len(recs[0].Checkpoint) == 0 {
		t.Fatalf("Close did not flush a checkpoint: gen %d, %d checkpoint bytes",
			recs[0].Generation, len(recs[0].Checkpoint))
	}
	if recs[0].State.Terminal() {
		t.Fatalf("shutdown wrote a terminal record: %q", recs[0].State)
	}

	m2 := mustManager(t, det, Config{Workers: 1, Store: store2, OracleFor: oracleFor})
	t.Cleanup(m2.Close)
	final := waitTerminal(t, m2, j.ID)
	want, err := det.Inspect(context.Background(), oracle.NewModelOracle(sus), 3)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Verdict == nil || *final.Verdict != want {
		t.Fatalf("resumed-from-flush verdict mismatch: %+v want %+v", final, want)
	}
}

// TestQuotaExhaustedJob drives a tenant's oracle-query budget to zero
// mid-audit and checks the failure is structured: machine-readable error
// code, and a queries figure that matches the tenant ledger exactly.
func TestQuotaExhaustedJob(t *testing.T) {
	det, sus := sharedDetector(t)
	tn := jobstore.NewTenancy([]jobstore.TenantConfig{
		{Name: "broke", Key: "k1", Quota: 10},
	}, nil)
	tenant, _ := tn.Lookup("broke")

	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)
	j, err := m.Submit("m0", "broke", jobstore.WrapOracle(tenant, oracle.NewModelOracle(sus)), 1)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, j.ID)
	if final.State != StateFailed || final.ErrorCode != "quota_exhausted" {
		t.Fatalf("quota exhaustion not classified: %+v", final)
	}
	if !strings.Contains(final.Error, "quota") {
		t.Fatalf("error message does not mention the quota: %q", final.Error)
	}
	if final.Progress.Queries != tenant.Spent() {
		t.Fatalf("job queries %d != tenant ledger %d", final.Progress.Queries, tenant.Spent())
	}
	if spent := tenant.Spent(); spent > 10 {
		t.Fatalf("ledger overspent the quota: %d > 10", spent)
	}
}

// TestDeleteStaysGoneAfterRestart distinguishes the two ways a job stops:
// shutdown leaves it resumable, Delete journals a cancel that survives
// compaction and keeps the job out of the next boot's listing.
func TestDeleteStaysGoneAfterRestart(t *testing.T) {
	det, sus := sharedDetector(t)
	dir := t.TempDir()
	oracleFor := func(modelID, tenant string) (oracle.Oracle, error) {
		return oracle.NewModelOracle(sus), nil
	}

	store1 := openStore(t, dir)
	m1 := mustManager(t, det, Config{Workers: 1, Store: store1, OracleFor: oracleFor})
	blocker := newBlockingOracle(det)
	j, err := m1.Submit("doomed", "", blocker, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	if _, err := m1.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	m2 := mustManager(t, det, Config{Workers: 1, Store: store2, OracleFor: oracleFor})
	t.Cleanup(m2.Close)
	if m2.Resumed() != 0 {
		t.Fatalf("cancelled job resumed: Resumed() = %d", m2.Resumed())
	}
	if n := len(m2.List()); n != 0 {
		t.Fatalf("cancelled job still listed after restart: %d jobs", n)
	}
}

// TestSubmitJournaledBeforeAck: an acknowledged submission must already be
// in the journal — a crash immediately after Submit returns cannot lose it.
func TestSubmitJournaledBeforeAck(t *testing.T) {
	det, _ := sharedDetector(t)
	dir := t.TempDir()
	store := openStore(t, dir)
	defer store.Close()
	m := mustManager(t, det, Config{Workers: 1, Store: store, OracleFor: func(string, string) (oracle.Oracle, error) {
		return newBlockingOracle(det), nil
	}})
	t.Cleanup(m.Close)

	blocker := newBlockingOracle(det)
	if _, err := m.Submit("m0", "acme", blocker, 5); err != nil {
		t.Fatal(err)
	}
	recs := store.Jobs()
	if len(recs) != 1 || recs[0].ModelID != "m0" || recs[0].Tenant != "acme" || recs[0].InspectID != 5 {
		t.Fatalf("submission not journaled before ack: %+v", recs)
	}
}

// TestResumedSeqContinues: job IDs minted after a restart must not collide
// with journaled ones.
func TestResumedSeqContinues(t *testing.T) {
	det, sus := sharedDetector(t)
	dir := t.TempDir()
	oracleFor := func(modelID, tenant string) (oracle.Oracle, error) {
		return oracle.NewModelOracle(sus), nil
	}

	store1 := openStore(t, dir)
	m1 := mustManager(t, det, Config{Workers: 1, Store: store1, OracleFor: oracleFor})
	a, err := m1.Submit("m0", "", oracle.NewModelOracle(sus), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, a.ID)
	m1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	m2 := mustManager(t, det, Config{Workers: 1, Store: store2, OracleFor: oracleFor})
	t.Cleanup(m2.Close)
	b, err := m2.Submit("m1", "", oracle.NewModelOracle(sus), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == a.ID {
		t.Fatalf("post-restart job ID collides with journaled job: %s", b.ID)
	}
	// The terminal job from the first life is retained in the listing.
	got, err := m2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Verdict == nil {
		t.Fatalf("journaled terminal job lost its verdict: %+v", got)
	}
	waitTerminal(t, m2, b.ID)
}
