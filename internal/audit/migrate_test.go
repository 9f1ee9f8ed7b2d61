package audit

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bprom/internal/binio"
	"bprom/internal/bprom"
	"bprom/internal/oracle"
	"bprom/internal/tensor"
)

// pauseOracle holds every Predict until its gate channel is closed, then
// forwards to the real model. Unlike gateOracle's park (which only releases
// when the job dies) this lets a test freeze a job in StateRunning before
// its first generation and afterwards let it run to completion.
type pauseOracle struct {
	inner oracle.Oracle
	open  chan struct{}
}

func (o *pauseOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	select {
	case <-o.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return o.inner.Predict(ctx, x)
}
func (o *pauseOracle) NumClasses() int { return o.inner.NumClasses() }
func (o *pauseOracle) InputDim() int   { return o.inner.InputDim() }

// Manager-level contract of the migration primitives: ExportCheckpoint's
// lifecycle errors and SubmitResume's three inputs — a live checkpoint, no
// checkpoint at all, and corrupt bytes — each with the verdict/spend
// invariants the gateway supervisor builds on.

func TestExportCheckpointLifecycle(t *testing.T) {
	det, sus := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	if _, err := m.ExportCheckpoint("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}

	// A job parked before its first completed generation has nothing to
	// export yet: 204 semantics, not an error the supervisor acts on.
	gate := &pauseOracle{inner: oracle.NewModelOracle(sus), open: make(chan struct{})}
	j, err := m.Submit("m0", "", gate, 4)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, func(j Job) bool { return j.State == StateRunning })
	if _, err := m.ExportCheckpoint(j.ID); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("checkpoint before first generation: %v, want ErrNoCheckpoint", err)
	}

	// Once the gate opens the job runs to completion — and a terminal job
	// refuses export: there is nothing to migrate, only a verdict to read.
	close(gate.open)
	waitTerminal(t, m, j.ID)
	if _, err := m.ExportCheckpoint(j.ID); !errors.Is(err, ErrTerminalJob) {
		t.Fatalf("terminal job export: %v, want ErrTerminalJob", err)
	}
}

// captureCheckpoint reruns the shared inspection once in-process, returning
// its first mid-run checkpoint (already CRC-framed for the wire) and the
// uninterrupted verdict.
func captureCheckpoint(t *testing.T, inspectID int) ([]byte, bprom.Verdict) {
	t.Helper()
	det, sus := sharedDetector(t)
	var ckpt *bprom.Checkpoint
	want, err := det.InspectResumable(context.Background(), oracle.NewModelOracle(sus), inspectID, nil,
		func(c *bprom.Checkpoint) {
			if ckpt == nil {
				ckpt = c
			}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || ckpt.Queries <= 0 || ckpt.Queries >= want.Queries {
		t.Fatalf("unusable mid-run checkpoint: %+v", ckpt)
	}
	blob, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := binio.EncodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	return frame, want
}

func TestSubmitResumeBitExactFromCheckpoint(t *testing.T) {
	det, sus := sharedDetector(t)
	frame, want := captureCheckpoint(t, 11)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	j, err := m.SubmitResume("m0", "acme", oracle.NewModelOracle(sus), 11, frame, "n0.a3")
	if err != nil {
		t.Fatal(err)
	}
	if j.Tenant != "acme" || j.MigratedFrom != "n0.a3" || j.InspectID != 11 {
		t.Fatalf("resumed identity: %+v", j)
	}
	if j.Progress.Queries == 0 {
		t.Fatal("resumed snapshot must carry the checkpointed spend before the job runs")
	}
	final := waitTerminal(t, m, j.ID)
	if final.State != StateDone || final.Verdict == nil {
		t.Fatalf("resumed job: %+v", final)
	}
	if *final.Verdict != want || final.Progress.Queries != want.Queries {
		t.Fatalf("resumed verdict %+v (queries %d) != uninterrupted %+v", *final.Verdict, final.Progress.Queries, want)
	}
}

func TestSubmitResumeEmptyFrameRestartsFresh(t *testing.T) {
	det, sus := sharedDetector(t)
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	// No cached checkpoint (the owner died before one was exported): the
	// job restarts from generation zero but keeps its identity, so the
	// verdict is still the one the tenant was promised.
	j, err := m.SubmitResume("m0", "acme", oracle.NewModelOracle(sus), 12, nil, "n1.a8")
	if err != nil {
		t.Fatal(err)
	}
	if j.MigratedFrom != "n1.a8" || j.Progress.Queries != 0 {
		t.Fatalf("fresh restart snapshot: %+v", j)
	}
	final := waitTerminal(t, m, j.ID)
	want, err := det.Inspect(context.Background(), oracle.NewModelOracle(sus), 12)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Verdict == nil || *final.Verdict != want {
		t.Fatalf("fresh restart verdict: %+v, want %+v", final, want)
	}
}

func TestSubmitResumeCorruptFrameFailsClean(t *testing.T) {
	det, sus := sharedDetector(t)
	frame, _ := captureCheckpoint(t, 13)
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	m := mustManager(t, det, Config{Workers: 1})
	t.Cleanup(m.Close)

	// The submission is ACCEPTED — the supervisor sees one uniform outcome,
	// a job it can poll — but the job is born terminal with the machine-
	// readable code, and no oracle query is ever spent on it.
	j, err := m.SubmitResume("m0", "acme", oracle.NewModelOracle(sus), 13, corrupt, "n0.a1")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed || j.ErrorCode != BadCheckpointCode {
		t.Fatalf("corrupt resume: %+v, want failed/%s", j, BadCheckpointCode)
	}
	if !strings.Contains(j.Error, "corrupt") {
		t.Fatalf("failure should say the checkpoint was corrupt: %q", j.Error)
	}
	if j.Progress.Queries != 0 {
		t.Fatalf("corrupt resume charged %d queries", j.Progress.Queries)
	}
	got, err := m.Get(j.ID)
	if err != nil || got.State != StateFailed {
		t.Fatalf("corrupt-resume job must stay pollable: %+v, %v", got, err)
	}
}
