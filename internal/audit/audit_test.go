package audit

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// Tiny prompting budgets: the tests exercise scheduling, not detection
// quality.
func vpWhiteBox() vp.WhiteBoxConfig { return vp.WhiteBoxConfig{Epochs: 2} }
func vpBlackBox() vp.BlackBoxConfig { return vp.BlackBoxConfig{Iterations: 3, BatchSize: 6} }

// trackingOracle counts Predict calls on the way into another oracle.
type trackingOracle struct {
	inner oracle.Oracle
	calls atomic.Int64
}

func (o *trackingOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	o.calls.Add(1)
	return o.inner.Predict(ctx, x)
}
func (o *trackingOracle) NumClasses() int { return o.inner.NumClasses() }
func (o *trackingOracle) InputDim() int   { return o.inner.InputDim() }

var (
	envOnce sync.Once
	envDet  *bprom.Detector
	envSus  *nn.Model
)

// sharedDetector trains one tiny detector and one suspicious model, reused
// across the tests (training dominates test runtime).
func sharedDetector(t *testing.T) (*bprom.Detector, *nn.Model) {
	t.Helper()
	envOnce.Do(func() {
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
			WhiteBox:      vpWhiteBox(),
			BlackBox:      vpBlackBox(),
			QuerySamples:  6,
			Seed:          42,
		})
		if err != nil {
			panic(err)
		}
		envDet = det
		m, err := nn.Build(nn.ArchConfig{
			Arch: nn.ArchConvLite, C: srcTrain.Shape.C, H: srcTrain.Shape.H, W: srcTrain.Shape.W,
			NumClasses: srcTrain.Classes, Hidden: 12,
		}, rng.New(7))
		if err != nil {
			panic(err)
		}
		if _, err := trainer.Train(ctx, m, srcTrain, trainer.Config{Epochs: 3}, rng.New(8)); err != nil {
			panic(err)
		}
		envSus = m
	})
	return envDet, envSus
}

// waitResult is one Manager.Wait outcome, handed back from a goroutine.
type waitResult struct {
	job Job
	err error
}

func waitAsync(ctx context.Context, m *Manager, id string) <-chan waitResult {
	res := make(chan waitResult, 1)
	go func() {
		j, err := m.Wait(ctx, id)
		res <- waitResult{j, err}
	}()
	return res
}

// recvWait receives a Wait outcome; a Wait still blocked after 30 s fails
// the test as a missed wake-up.
func recvWait(t *testing.T, res <-chan waitResult) waitResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("Manager.Wait missed its wake-up")
		return waitResult{}
	}
}

// waitTerminal blocks in Manager.Wait until the job is terminal.
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	r := recvWait(t, waitAsync(context.Background(), m, id))
	if r.err != nil {
		t.Fatalf("Wait(%s): %v", id, r.err)
	}
	if !r.job.State.Terminal() {
		t.Fatalf("Wait(%s) returned a non-terminal job: %+v", id, r.job)
	}
	return r.job
}

// waitState polls for a progress predicate, which no Manager call blocks on.
func waitState(t *testing.T, m *Manager, id string, want func(Job) bool) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if want(j) {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return Job{}
}

// mustManager constructs a Manager or fails the test.
func mustManager(t *testing.T, det *bprom.Detector, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJobLifecycleAndVerdictParity(t *testing.T) {
	det, sus := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 2})
	t.Cleanup(m.Close)

	j, err := m.Submit("m0", "", oracle.NewModelOracle(sus), 7)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" || j.InspectID != 7 {
		t.Fatalf("submitted snapshot: %+v", j)
	}
	final := waitTerminal(t, m, j.ID)
	if final.State != StateDone || final.Verdict == nil {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.Progress.Generation != final.Progress.Generations || final.Progress.Generations == 0 {
		t.Fatalf("final progress incomplete: %+v", final.Progress)
	}
	if final.Progress.Queries == 0 || final.Verdict.Queries != final.Progress.Queries {
		t.Fatalf("query accounting: progress %d, verdict %d", final.Progress.Queries, final.Verdict.Queries)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Fatalf("lifecycle timestamps missing: %+v", final)
	}

	// The job's verdict must be bit-identical to a direct in-process
	// inspection with the same inspect id.
	want, err := det.Inspect(context.Background(), oracle.NewModelOracle(sus), 7)
	if err != nil {
		t.Fatal(err)
	}
	if *final.Verdict != want {
		t.Fatalf("job verdict %+v differs from in-process %+v", *final.Verdict, want)
	}

	list := m.List()
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("listing: %+v", list)
	}
}

func TestSequentialInspectIDs(t *testing.T) {
	det, sus := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)
	a, err := m.Submit("m0", "", oracle.NewModelOracle(sus), -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit("m1", "", oracle.NewModelOracle(sus), -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.InspectID == b.InspectID {
		t.Fatalf("auto inspect ids collide: %d", a.InspectID)
	}
}

// blockingOracle parks every Predict until its context is cancelled,
// simulating an arbitrarily slow suspicious endpoint.
type blockingOracle struct {
	classes, dim int
	started      chan struct{}
	once         sync.Once
}

func (o *blockingOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	o.once.Do(func() { close(o.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}
func (o *blockingOracle) NumClasses() int { return o.classes }
func (o *blockingOracle) InputDim() int   { return o.dim }

func newBlockingOracle(det *bprom.Detector) *blockingOracle {
	return &blockingOracle{classes: det.MinClasses(), dim: det.InputDim(), started: make(chan struct{})}
}

func TestDeleteCancelsRunningJob(t *testing.T) {
	det, sus := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	blocker := newBlockingOracle(det)
	j, err := m.Submit("slow", "", blocker, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started // the inspection is inside a Predict now
	if _, err := m.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(j.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("deleted job still resolvable: %v", err)
	}

	// The single worker must be free again: a real job completes.
	k, err := m.Submit("m0", "", oracle.NewModelOracle(sus), 1)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, k.ID)
	if final.State != StateDone {
		t.Fatalf("post-delete job failed: %+v", final)
	}
}

func TestDeleteQueuedJobNeverRuns(t *testing.T) {
	det, _ := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	blocker := newBlockingOracle(det)
	running, err := m.Submit("slow", "", blocker, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	tracked := &trackingOracle{inner: newBlockingOracle(det)}
	queued, err := m.Submit("queued", "", tracked, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(queued.ID); err != nil {
		t.Fatal(err)
	}
	// Free the worker; the deleted job must be skipped without a query.
	if _, err := m.Delete(running.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(m.List()) != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if tracked.calls.Load() != 0 {
		t.Fatalf("deleted queued job still queried the oracle %d times", tracked.calls.Load())
	}
}

func TestQueueBound(t *testing.T) {
	det, _ := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1, MaxQueued: 1})
	t.Cleanup(m.Close)

	blocker := newBlockingOracle(det)
	if _, err := m.Submit("slow", "", blocker, -1); err != nil {
		t.Fatal(err)
	}
	<-blocker.started // worker occupied; queue empty
	if _, err := m.Submit("q1", "", newBlockingOracle(det), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("q2", "", newBlockingOracle(det), -1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
}

func TestDeleteFreesQueueSlot(t *testing.T) {
	det, _ := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1, MaxQueued: 1})
	t.Cleanup(m.Close)

	blocker := newBlockingOracle(det)
	if _, err := m.Submit("slow", "", blocker, -1); err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	q1, err := m.Submit("q1", "", newBlockingOracle(det), -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("q2", "", newBlockingOracle(det), -1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	// Deleting the queued job must release its slot immediately, even
	// though the worker is still stuck in the running inspection.
	if _, err := m.Delete(q1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("q3", "", newBlockingOracle(det), -1); err != nil {
		t.Fatalf("queue slot not released after delete: %v", err)
	}
}

func TestCloseDrainsRunningJobs(t *testing.T) {
	det, _ := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 2})

	blocker := newBlockingOracle(det)
	j, err := m.Submit("slow", "", blocker, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	queued, err := m.Submit("queued", "", newBlockingOracle(det), -1)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain the running job")
	}
	for _, id := range []string{j.ID, queued.ID} {
		got, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateFailed {
			t.Fatalf("job %s after Close: %+v", id, got)
		}
	}
	if _, err := m.Submit("late", "", blocker, -1); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

// errOracle fails every query, so a job on it fails at its first generation.
type errOracle struct{ classes, dim int }

func (o errOracle) Predict(context.Context, *tensor.Tensor) (*tensor.Tensor, error) {
	return nil, errors.New("oracle unreachable")
}
func (o errOracle) NumClasses() int { return o.classes }
func (o errOracle) InputDim() int   { return o.dim }

// blockedCtx reports, by closing blocked, the first time Wait asks for its
// Done channel: Wait has then looked the job up and is about to block.
type blockedCtx struct {
	context.Context
	once    sync.Once
	blocked chan struct{}
}

func newBlockedCtx() *blockedCtx {
	return &blockedCtx{Context: context.Background(), blocked: make(chan struct{})}
}

func (c *blockedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.blocked) })
	return c.Context.Done()
}

// TestWait pins Manager.Wait, the hold behind GET /v1/audits/{id}?wait=:
// a terminal snapshot as soon as the job ends (done, failed, or replayed
// already terminal), the current snapshot when the caller's context ends or
// the manager closes first, and ErrUnknownJob for an id that is not, or no
// longer, held. Jobs are parked on oracles and released by channel.
func TestWait(t *testing.T) {
	det, sus := sharedDetector(t)
	ctx := context.Background()

	t.Run("done", func(t *testing.T) {
		m := mustManager(t, det, Config{Workers: 1})
		t.Cleanup(m.Close)
		gate := &pauseOracle{inner: oracle.NewModelOracle(sus), open: make(chan struct{})}
		j, err := m.Submit("m0", "", gate, 2)
		if err != nil {
			t.Fatal(err)
		}
		bctx := newBlockedCtx()
		res := waitAsync(bctx, m, j.ID)
		<-bctx.blocked
		close(gate.open)
		r := recvWait(t, res)
		if r.err != nil || r.job.State != StateDone || r.job.Verdict == nil {
			t.Fatalf("Wait on a released job: %+v, %v", r.job, r.err)
		}
	})

	t.Run("failed", func(t *testing.T) {
		m := mustManager(t, det, Config{Workers: 1})
		t.Cleanup(m.Close)
		j, err := m.Submit("m0", "", errOracle{det.MinClasses(), det.InputDim()}, 2)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, m, j.ID)
		if final.State != StateFailed || !strings.Contains(final.Error, "oracle unreachable") {
			t.Fatalf("failed job: %+v", final)
		}
	})

	t.Run("replayed terminal", func(t *testing.T) {
		dir := t.TempDir()
		oracleFor := func(string, string) (oracle.Oracle, error) { return oracle.NewModelOracle(sus), nil }
		store1 := openStore(t, dir)
		m1 := mustManager(t, det, Config{Workers: 1, Store: store1, OracleFor: oracleFor})
		j, err := m1.Submit("m0", "", errOracle{det.MinClasses(), det.InputDim()}, 2)
		if err != nil {
			t.Fatal(err)
		}
		first := waitTerminal(t, m1, j.ID)
		m1.Close()
		if err := store1.Close(); err != nil {
			t.Fatal(err)
		}
		store2 := openStore(t, dir)
		t.Cleanup(func() { store2.Close() })
		m2 := mustManager(t, det, Config{Workers: 1, Store: store2, OracleFor: oracleFor})
		t.Cleanup(m2.Close)
		if again := waitTerminal(t, m2, j.ID); again.State != StateFailed || again.Error != first.Error {
			t.Fatalf("replayed job %+v, first life %+v", again, first)
		}
	})

	t.Run("ctx ends", func(t *testing.T) {
		m := mustManager(t, det, Config{Workers: 1})
		t.Cleanup(m.Close)
		blocker := newBlockingOracle(det)
		j, err := m.Submit("slow", "", blocker, -1)
		if err != nil {
			t.Fatal(err)
		}
		<-blocker.started
		wctx, cancel := context.WithCancel(ctx)
		res := waitAsync(wctx, m, j.ID)
		cancel()
		r := recvWait(t, res)
		if r.err != nil || r.job.ID != j.ID || r.job.State != StateRunning {
			t.Fatalf("Wait after its ctx ended: %+v, %v; want the running snapshot", r.job, r.err)
		}
	})

	t.Run("close", func(t *testing.T) {
		m := mustManager(t, det, Config{Workers: 1})
		blocker := newBlockingOracle(det)
		j, err := m.Submit("slow", "", blocker, -1)
		if err != nil {
			t.Fatal(err)
		}
		<-blocker.started
		res := waitAsync(ctx, m, j.ID)
		m.Close()
		if r := recvWait(t, res); r.err != nil || r.job.ID != j.ID {
			t.Fatalf("Wait across Close: %+v, %v", r.job, r.err)
		}
	})

	t.Run("unknown and deleted", func(t *testing.T) {
		m := mustManager(t, det, Config{Workers: 1})
		t.Cleanup(m.Close)
		if _, err := m.Wait(ctx, "a99"); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
		}
		// The queued job never runs, so Delete's is its only wake-up.
		blocker := newBlockingOracle(det)
		if _, err := m.Submit("slow", "", blocker, -1); err != nil {
			t.Fatal(err)
		}
		<-blocker.started
		j, err := m.Submit("queued", "", newBlockingOracle(det), -1)
		if err != nil {
			t.Fatal(err)
		}
		bctx := newBlockedCtx()
		res := waitAsync(bctx, m, j.ID)
		<-bctx.blocked
		if _, err := m.Delete(j.ID); err != nil {
			t.Fatal(err)
		}
		if r := recvWait(t, res); !errors.Is(r.err, ErrUnknownJob) {
			t.Fatalf("Wait on a deleted job: %+v, %v; want ErrUnknownJob", r.job, r.err)
		}
	})
}
