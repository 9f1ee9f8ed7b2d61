package jobstore

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bprom/internal/binio"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// seedJobs writes a small mixed-state history and closes the store,
// returning the jobs directory.
func seedJobs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := openT(t, dir)
	now := time.Unix(0, 1700000000e9)
	if err := s.Create(1, "m-clean", "acme", 1, now); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Done(1, VerdictRecord{Score: 0.12, Threshold: 0.5, PromptedAcc: 0.7, Queries: 420}, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(2, "m-sus", "acme", 2, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(2, 3, 210, []byte("opaque search state")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(3, "m-queued", "globex", 3, now.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestStoreReplayRoundTrip(t *testing.T) {
	dir := seedJobs(t)
	s := openT(t, dir)
	jobs := s.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	j1, j2, j3 := jobs[0], jobs[1], jobs[2]
	if j1.State != StateDone || j1.Verdict == nil || j1.Verdict.Queries != 420 || j1.Queries != 420 {
		t.Fatalf("job 1 replayed wrong: %+v", j1)
	}
	if j2.State != StateRunning || j2.Generation != 3 || j2.Queries != 210 || string(j2.Checkpoint) != "opaque search state" {
		t.Fatalf("job 2 replayed wrong: %+v", j2)
	}
	if j3.State != StateQueued || j3.Tenant != "globex" {
		t.Fatalf("job 3 replayed wrong: %+v", j3)
	}
	if got := s.NextSeq(); got != 4 {
		t.Fatalf("NextSeq %d, want 4", got)
	}
	spend := s.TenantSpend()
	if spend["acme"] != 630 || spend["globex"] != 0 {
		t.Fatalf("tenant spend %v", spend)
	}
	st := s.Stats()
	if st.JobsResumed != 2 {
		t.Fatalf("jobs_resumed %d, want 2 (one running, one queued)", st.JobsResumed)
	}
	if st.JournalBytes <= 0 || st.LastCompaction.IsZero() {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestEmptyAndMissingJournalBootClean(t *testing.T) {
	// Missing directory and journal.
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	s := openT(t, dir)
	if len(s.Jobs()) != 0 || s.NextSeq() != 1 {
		t.Fatal("missing journal did not boot clean")
	}
	s.Close()
	// Empty journal file.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, journalName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir2)
	if len(s2.Jobs()) != 0 {
		t.Fatal("empty journal did not boot clean")
	}
}

func TestTruncatedTailSilentlyDropped(t *testing.T) {
	dir := seedJobs(t)
	path := filepath.Join(dir, journalName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final frame — a crash artifact.
	for _, cut := range []int{1, 3, binio.FrameHeaderSize - 1, binio.FrameHeaderSize + 2} {
		trimmed := img[:len(img)-cut]
		if err := os.WriteFile(path, trimmed, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: truncated tail should boot clean, got %v", cut, err)
		}
		// The damaged final record (job 3's create) is gone; earlier
		// records survive intact.
		jobs := s.Jobs()
		if len(jobs) != 2 {
			t.Fatalf("cut %d: %d jobs after tail drop, want 2", cut, len(jobs))
		}
		if jobs[1].State != StateRunning || jobs[1].Generation != 3 {
			t.Fatalf("cut %d: surviving job wrong: %+v", cut, jobs[1])
		}
		s.Close()
		// Restore the full image for the next cut.
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlippedCRCByteRejectsRecord(t *testing.T) {
	dir := seedJobs(t)
	path := filepath.Join(dir, journalName)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the first frame's payload.
	corrupt := append([]byte(nil), img...)
	corrupt[binio.FrameHeaderSize+4] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("corrupt journal opened without error")
	}
	if !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// The error names the bad offset so operators can find the damage.
	if want := "offset 0"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestCompactionDropsCheckpointChurn(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	now := time.Now()
	if err := s.Create(1, "m", "t", 1, now); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 2048)
	for gen := 1; gen <= 50; gen++ {
		if err := s.Checkpoint(1, gen, int64(gen*10), blob); err != nil {
			t.Fatal(err)
		}
	}
	grown := s.Stats().JournalBytes
	s.Close()
	s2 := openT(t, dir)
	compacted := s2.Stats().JournalBytes
	if compacted >= grown/10 {
		t.Fatalf("compaction kept %d of %d bytes (want only the latest checkpoint)", compacted, grown)
	}
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].Generation != 50 || jobs[0].Queries != 500 {
		t.Fatalf("compaction lost the latest checkpoint: %+v", jobs[0])
	}
}

// TestLiveCompactionOnThreshold pins the size-triggered path: a store with
// a byte threshold compacts DURING appends — a long-running node's journal
// stays bounded without waiting for the next restart — and keeps accepting
// writes afterwards (the compactor must reopen its own rewritten file; the
// old descriptor points at an unlinked inode).
func TestLiveCompactionOnThreshold(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.compactEvery = 16 << 10
	now := time.Now()
	if err := s.Create(1, "m", "t", 1, now); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("x"), 2048)
	for gen := 1; gen <= 200; gen++ {
		if err := s.Checkpoint(1, gen, int64(gen*10), blob); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no live compaction after 200 checkpoints over a 16KiB threshold: %+v", st)
	}
	// Churn collapses to roughly one live checkpoint per compaction cycle:
	// the journal must stay well under the raw append volume (~400KiB).
	if st.JournalBytes > 64<<10 {
		t.Fatalf("journal grew to %d bytes despite live compaction", st.JournalBytes)
	}
	// The store stays writable and terminal records land after compaction.
	if err := s.Fail(1, "boom", "", 42, now); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].State != StateFailed || jobs[0].Generation != 200 {
		t.Fatalf("replay after live compaction: %+v", jobs)
	}
}

// TestFailedAppendLeavesNothingBehind pins the append order — check, write +
// fsync, and only then fold into memory: a transition whose write fails must
// not exist in memory either, so the caller's retry (after the disk
// recovers) is not refused as a duplicate, and it replays.
func TestFailedAppendLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	readOnly, err := os.Open(s.path) // every write to this handle fails
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	journal := s.f
	s.f = readOnly
	now := time.Unix(1700000000, 0)
	if err := s.Create(1, "m", "t", 1, now); err == nil {
		t.Fatal("create on an unwritable journal was acknowledged")
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("failed append left %d jobs in memory", n)
	}
	if got := s.Stats().JournalBytes; got != 0 {
		t.Fatalf("failed append counted %d journal bytes", got)
	}
	s.f = journal
	if err := s.Create(1, "m", "t", 1, now); err != nil {
		t.Fatalf("retry after the journal recovered: %v", err)
	}
	s.Close()
	if jobs := openT(t, dir).Jobs(); len(jobs) != 1 || jobs[0].ID != 1 || jobs[0].State != StateQueued {
		t.Fatalf("retried create did not replay: %+v", jobs)
	}
}

func TestCancelAndFailReplay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	now := time.Now()
	for id := uint64(1); id <= 2; id++ {
		if err := s.Create(id, "m", "t", int(id), now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fail(1, "oracle exploded", "quota_exhausted", 99, now); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(2, now); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	jobs := s2.Jobs()
	if jobs[0].State != StateFailed || jobs[0].Error != "oracle exploded" || jobs[0].ErrorCode != "quota_exhausted" || jobs[0].Queries != 99 {
		t.Fatalf("failed job replayed wrong: %+v", jobs[0])
	}
	if jobs[1].State != StateCancelled {
		t.Fatalf("cancelled job replayed wrong: %+v", jobs[1])
	}
	if s2.Stats().JobsResumed != 0 {
		t.Fatal("terminal jobs must not count as resumed")
	}
}

// FuzzJournalReplay feeds arbitrary journal images to the replay scanner:
// it must never panic, and every accepted record must verify its CRC (so
// re-encoding a scanned journal reproduces the accepted prefix).
func FuzzJournalReplay(f *testing.F) {
	var seed bytes.Buffer
	_ = binio.AppendFrame(&seed, []byte("hello"))
	_ = binio.AppendFrame(&seed, bytes.Repeat([]byte{0xab}, 300))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(seed.Bytes()[:seed.Len()-3])
	corrupted := append([]byte(nil), seed.Bytes()...)
	corrupted[binio.FrameHeaderSize] ^= 1
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, image []byte) {
		payloads, goodLen, err := binio.ScanFrames(bytes.NewReader(image))
		if err != nil {
			if !errors.Is(err, binio.ErrCorrupt) {
				t.Fatalf("non-corruption error from scanner: %v", err)
			}
			return
		}
		if goodLen > int64(len(image)) {
			t.Fatalf("goodLen %d exceeds image size %d", goodLen, len(image))
		}
		// Re-encoding the accepted records must reproduce the good prefix.
		var re bytes.Buffer
		for _, p := range payloads {
			if err := binio.AppendFrame(&re, p); err != nil {
				t.Fatal(err)
			}
		}
		if int64(re.Len()) != goodLen || !bytes.Equal(re.Bytes(), image[:goodLen]) {
			t.Fatalf("re-encoded prefix diverges: %d vs %d bytes", re.Len(), goodLen)
		}
	})
}

// The golden journal pins every record layout on disk. Regenerate (after an
// INTENTIONAL, versioned format change) with:
//
//	go test ./internal/jobstore -run TestGoldenJournal -update
var updateGolden = flag.Bool("update", false, "rewrite golden journal testdata")

const goldenJournalFile = "journal_v1.golden"

// writeGoldenJournal drives one store through all six record kinds with
// fixed timestamps. Each job's records are contiguous and minimal, so the
// image is also its own compaction.
func writeGoldenJournal(t *testing.T, dir string) {
	t.Helper()
	s := openT(t, dir)
	at := func(sec int64) time.Time { return time.Unix(1700000000+sec, 123456789) }
	steps := []error{
		s.Create(1, "m-clean", "acme", 1, at(0)),
		s.Done(1, VerdictRecord{Score: 0.125, Threshold: 0.4375, Backdoored: false, PromptedAcc: 0.75, Queries: 6576}, at(60)),
		s.Create(2, "m-broke", "globex", -1, at(1)),
		s.Fail(2, "tenant globex exhausted its quota", "quota_exhausted", 25, at(61)),
		s.Create(3, "m-gone", "", 3, at(2)),
		s.Cancel(3, at(62)),
		s.Create(4, "m-sus", "acme", 4, at(3)),
		s.Start(4),
		s.Checkpoint(4, 9, 1944, []byte("opaque \x00 search state")),
		s.Create(5, "m-queued", "acme", 5, at(4)),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenJournal pins the journal bytes from both sides: the transition
// methods must write the committed image, and opening the committed image
// (replay, then compaction re-encoding every record from memory) must leave
// the same bytes behind and the committed job states in memory.
func TestGoldenJournal(t *testing.T) {
	goldenPath := filepath.Join("testdata", goldenJournalFile)
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	writeGoldenJournal(t, dir)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden journal (regenerate with -update): %v", err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("transitions wrote %d bytes that differ from the %d golden bytes: record encoder drifted", len(written), len(golden))
	}

	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compacted, golden) {
		t.Fatalf("compaction rewrote the golden image to %d different bytes: compaction encoder drifted", len(compacted))
	}
	jobs := s.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("golden journal replayed %d jobs, want 5", len(jobs))
	}
	wantStates := []State{StateDone, StateFailed, StateCancelled, StateRunning, StateQueued}
	for i, j := range jobs {
		if j.ID != uint64(i+1) || j.State != wantStates[i] {
			t.Fatalf("job %d replayed as %+v, want state %s", i+1, j, wantStates[i])
		}
	}
	if v := jobs[0].Verdict; v == nil || *v != (VerdictRecord{Score: 0.125, Threshold: 0.4375, PromptedAcc: 0.75, Queries: 6576}) ||
		!jobs[0].Finished.Equal(time.Unix(1700000060, 123456789)) {
		t.Fatalf("done record drifted: %+v", jobs[0])
	}
	if j := jobs[1]; j.InspectID != -1 || j.Error != "tenant globex exhausted its quota" || j.ErrorCode != "quota_exhausted" || j.Queries != 25 {
		t.Fatalf("create/failed records drifted: %+v", j)
	}
	if j := jobs[3]; j.Generation != 9 || j.Queries != 1944 || string(j.Checkpoint) != "opaque \x00 search state" ||
		j.ModelID != "m-sus" || j.Tenant != "acme" || !j.Created.Equal(time.Unix(1700000003, 123456789)) {
		t.Fatalf("checkpoint record drifted: %+v", j)
	}
}
