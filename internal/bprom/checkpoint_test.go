package bprom

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bprom/internal/attack"
	"bprom/internal/binio"
	"bprom/internal/cmaes"
	"bprom/internal/oracle"
	"bprom/internal/vp"
)

// TestInspectResumableBitExact interrupts an inspection at a mid-run
// checkpoint (by replaying the captured snapshot through a fresh call) and
// asserts the resumed verdict — score, prompted accuracy, and total query
// count — is bit-identical to the uninterrupted run, across a round-trip
// through the binary checkpoint encoding.
func TestInspectResumableBitExact(t *testing.T) {
	e := sharedEnv(t)
	ctx := context.Background()
	sus := trainSus(t, e, &attack.Config{Kind: attack.BadNets, PoisonRate: 0.20}, 7)

	var checkpoints []*Checkpoint
	ref, err := e.det.InspectResumable(ctx, oracle.NewModelOracle(sus), 3, nil,
		func(c *Checkpoint) { checkpoints = append(checkpoints, c) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) == 0 {
		t.Fatal("no checkpoints captured")
	}
	plain, err := e.det.Inspect(ctx, oracle.NewModelOracle(sus), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ref != plain {
		t.Fatalf("checkpoint hooks perturbed the verdict: %+v vs %+v", ref, plain)
	}

	for _, pick := range []int{0, len(checkpoints) / 2, len(checkpoints) - 1} {
		blob, err := checkpoints[pick].Encode()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Generation != checkpoints[pick].Generation || restored.Queries != checkpoints[pick].Queries {
			t.Fatalf("checkpoint round-trip drifted: %d/%d vs %d/%d",
				restored.Generation, restored.Queries, checkpoints[pick].Generation, checkpoints[pick].Queries)
		}
		got, err := e.det.InspectResumable(ctx, oracle.NewModelOracle(sus), 3, nil, nil, restored)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("resume from generation %d diverged: %+v vs %+v", restored.Generation, got, ref)
		}
	}
}

// TestInspectResumableProgressAfterResume checks the progress stream of a
// resumed run starts at the checkpointed generation and query spend.
func TestInspectResumableProgressAfterResume(t *testing.T) {
	e := sharedEnv(t)
	ctx := context.Background()
	sus := trainSus(t, e, nil, 9)

	var mid *Checkpoint
	if _, err := e.det.InspectResumable(ctx, oracle.NewModelOracle(sus), 4, nil,
		func(c *Checkpoint) {
			if mid == nil {
				mid = c
			}
		}, nil); err != nil {
		t.Fatal(err)
	}
	var first *Progress
	var progress []Progress
	if _, err := e.det.InspectResumable(ctx, oracle.NewModelOracle(sus), 4, func(p Progress) {
		if first == nil {
			cp := p
			first = &cp
		}
		progress = append(progress, p)
	}, nil, mid); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.Generation != mid.Generation || first.Queries != mid.Queries {
		t.Fatalf("resumed progress started at %+v, want generation %d queries %d", first, mid.Generation, mid.Queries)
	}
	// Deltas after resume must account only for freshly spent queries.
	total := mid.Queries
	for _, p := range progress[1:] {
		total += p.QueriesDelta
		if p.Queries != total {
			t.Fatalf("query delta stream inconsistent at %+v (running total %d)", p, total)
		}
	}
}

// TestDecodeCheckpointRejectsGarbage pins the magic/version guard.
func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not a checkpoint blob, definitely")); err == nil {
		t.Fatal("expected error for garbage blob")
	}
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Fatal("expected error for empty blob")
	}
}

// goldenCheckpointFile pins the BPCK wire layout the way golden_v1.bpd pins
// the detector artifact. Regenerate (after an INTENTIONAL, versioned format
// change) with:
//
//	go test ./internal/bprom -run TestGoldenCheckpoint -update
const goldenCheckpointFile = "checkpoint_v1.bpck"

// goldenCheckpoint hand-assembles a checkpoint whose every field holds a
// distinct value, so a reordered or re-sized field changes the bytes.
func goldenCheckpoint() *Checkpoint {
	ramp := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = scale * float64(i+1) / 7
		}
		return out
	}
	st := &vp.SearchState{BatchRNG: [6]uint64{11, 12, 13, 14, 15, 1 << 63}}
	st.CMA = cmaes.SepState{
		Iter: 17, Evals: 289, Sigma: 0.3125,
		Mean: ramp(5, 1), Diag: ramp(5, 2), Ps: ramp(5, -3), Pc: ramp(5, 4), Best: ramp(5, -5),
		BestValue: -1.75, PrevBest: math.Inf(1), Stale: 2,
		RNG: [6]uint64{1, 2, 3, 4, 5, 0xfeedface},
	}
	return &Checkpoint{Generation: 17, Queries: 6576, Search: st}
}

// TestGoldenCheckpoint pins the BPCK bytes: encoding the hand-assembled
// checkpoint, and re-encoding the decoded golden, must both reproduce the
// committed file exactly — journals and in-flight migrations written by an
// older build stay resumable.
func TestGoldenCheckpoint(t *testing.T) {
	path := filepath.Join("testdata", goldenCheckpointFile)
	enc, err := goldenCheckpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden checkpoint (regenerate with -update): %v", err)
	}
	if !bytes.Equal(enc, raw) {
		t.Fatalf("encoded checkpoint differs from golden bytes (%d vs %d bytes): encoder drifted", len(enc), len(raw))
	}
	c, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(c, goldenCheckpoint()) {
		t.Fatalf("golden checkpoint decoded to %+v", c)
	}
	re, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatal("re-encoded golden checkpoint differs from golden bytes")
	}
}

// Encode sizes its buffer from the search state up front: the blob is one
// allocation of exactly its own length, however long the vectors are.
func TestCheckpointEncodeIsExactlySized(t *testing.T) {
	for _, dim := range []int{3, 300, 5000} {
		c := goldenCheckpoint()
		for _, v := range []*[]float64{&c.Search.CMA.Mean, &c.Search.CMA.Diag, &c.Search.CMA.Ps, &c.Search.CMA.Pc, &c.Search.CMA.Best} {
			*v = make([]float64, dim)
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if cap(enc) != len(enc) {
			t.Fatalf("dim %d: %d-byte checkpoint encoded into a %d-byte buffer", dim, len(enc), cap(enc))
		}
		if _, err := DecodeCheckpoint(enc); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
	}
}

// FuzzDecodeCheckpoint drives the path a network caller reaches through
// resume.checkpoint — binio.DecodeFrame, then DecodeCheckpoint — with
// arbitrary bytes: it must never panic, never allocate beyond a small
// multiple of what it was sent (length prefixes are attacker-chosen), and
// whatever it accepts must re-encode to the bytes it was decoded from.
func FuzzDecodeCheckpoint(f *testing.F) {
	blob, err := goldenCheckpoint().Encode()
	if err != nil {
		f.Fatal(err)
	}
	frame, err := binio.EncodeFrame(blob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)-5])
	f.Add(blob)
	f.Add([]byte{})
	// A valid header whose first vector claims 2^27 floats (1 GiB, exactly
	// the format cap) with nothing behind the claim.
	greedy := append(append([]byte(nil), blob[:80]...), 0, 0, 0, 8)
	f.Add(greedy)
	f.Fuzz(func(t *testing.T, in []byte) {
		payload, err := binio.DecodeFrame(in)
		if err != nil {
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("non-corruption error from DecodeFrame: %v", err)
			}
			// Most mutations die on the CRC; a caller who wants to reach the
			// decoder computes it. Do the same so the decoder is fuzzed too.
			payload = in
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeCheckpoint(payload)
		runtime.ReadMemStats(&after)
		if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(payload)+64<<10); grown > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), grown, limit)
		}
		if err != nil {
			return
		}
		re, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(payload, re) {
			t.Fatalf("re-encoding an accepted checkpoint changed its %d bytes", len(re))
		}
	})
}
