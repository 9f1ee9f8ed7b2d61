//go:build !race

package jobstore

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Store.Checkpoint allocates one blob-sized block per append — the copy the
// replayed record keeps — and nothing else that grows with the blob: the
// frame is built in place in the store's own buffer and written from there.
func TestCheckpointAppendAllocatesOneBlob(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := openT(t, t.TempDir())
	if err := s.Create(1, "m", "acme", 0, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	const size = 64 << 10
	blob := bytes.Repeat([]byte{0x5a}, size)
	if err := s.Checkpoint(1, 1, 10, blob); err != nil { // warm: sizes the frame buffer
		t.Fatal(err)
	}
	const appends = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for g := 2; g < 2+appends; g++ {
		blob[0] = byte(g)
		if err := s.Checkpoint(1, g, int64(10*g), blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perAppend := (after.TotalAlloc - before.TotalAlloc) / appends
	t.Logf("%d B allocated per append of a %d B blob", perAppend, size)
	if perAppend < size || perAppend >= 2*size {
		t.Fatalf("an append of a %d B blob allocates %d B, want one blob-sized copy (%d ≤ B < %d)", size, perAppend, size, 2*size)
	}
	j := s.Jobs()[0]
	if j.Generation != 1+appends || !bytes.Equal(j.Checkpoint, blob) {
		t.Fatalf("replayed state: generation %d, checkpoint matches %v", j.Generation, bytes.Equal(j.Checkpoint, blob))
	}
}
