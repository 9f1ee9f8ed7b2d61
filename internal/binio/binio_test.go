package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// stringCap is the format's string ceiling, spelled out here rather than
// borrowed from the implementation so the tests pin the wire contract.
const stringCap = 1 << 16

// pair is one Writer/Reader method pair exercised on one value: write
// encodes the value, read decodes it back for comparison.
type pair struct {
	name  string
	write func(w *Writer)
	read  func(r *Reader) any
	want  any
}

func pairs() []pair {
	floats := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64}
	ints := []int{0, 7, math.MaxUint32}
	blob := []byte{0, 1, 2, 0xff}
	return []pair{
		{"u8", func(w *Writer) { w.U8(0xa5) }, func(r *Reader) any { return r.U8() }, byte(0xa5)},
		{"u32", func(w *Writer) { w.U32(0xdeadbeef) }, func(r *Reader) any { return r.U32() }, uint32(0xdeadbeef)},
		{"u64", func(w *Writer) { w.U64(1<<63 | 5) }, func(r *Reader) any { return r.U64() }, uint64(1<<63 | 5)},
		{"f64", func(w *Writer) { w.F64(-0.1) }, func(r *Reader) any { return r.F64() }, -0.1},
		{"bool-true", func(w *Writer) { w.Bool(true) }, func(r *Reader) any { return r.Bool() }, true},
		{"bool-false", func(w *Writer) { w.Bool(false) }, func(r *Reader) any { return r.Bool() }, false},
		{"string", func(w *Writer) { w.String("résnet-lite") }, func(r *Reader) any { return r.String() }, "résnet-lite"},
		{"string-at-cap", func(w *Writer) { w.String(strings.Repeat("x", stringCap)) },
			func(r *Reader) any { return r.String() }, strings.Repeat("x", stringCap)},
		{"blob", func(w *Writer) { w.Blob(blob) }, func(r *Reader) any { return r.Blob() }, blob},
		{"floats", func(w *Writer) { w.Floats(floats) }, func(r *Reader) any { return r.Floats() }, floats},
		{"floats-into", func(w *Writer) { w.Floats(floats) },
			func(r *Reader) any {
				dst := make([]float64, len(floats))
				r.FloatsInto(dst)
				return dst
			}, floats},
		{"ints", func(w *Writer) { w.Ints(ints) }, func(r *Reader) any { return r.Ints() }, ints},
		{"prelude", func(w *Writer) { w.Prelude("BPROMNN", 1) },
			func(r *Reader) any { r.Prelude("BPROMNN", 1); return nil }, nil},
	}
}

// sources are the two kinds of input a Reader meets: one that knows how
// much is left (in memory) and one that does not (a stream).
var sources = map[string]func([]byte) io.Reader{
	"memory": func(b []byte) io.Reader { return bytes.NewReader(b) },
	"stream": func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) },
}

// TestRoundTripAndTruncation round-trips every pair and then replays every
// proper prefix of the encoding: a truncated artifact must fail with an
// error, never decode to a value.
func TestRoundTripAndTruncation(t *testing.T) {
	for _, p := range pairs() {
		for srcName, src := range sources {
			t.Run(p.name+"/"+srcName, func(t *testing.T) {
				var w Writer
				p.write(&w)
				if err := w.Err(); err != nil {
					t.Fatal(err)
				}
				enc := w.Bytes()
				r := NewReader(src(enc))
				got := p.read(r)
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, p.want) {
					t.Fatalf("round trip: got %v, want %v", got, p.want)
				}
				// Every prefix is a distinct truncation point, but the 64 KiB
				// case would replay 65k of them: step through it.
				step := 1
				if len(enc) > 1024 {
					step = 4099
				}
				for cut := 0; cut < len(enc); cut += step {
					r := NewReader(src(enc[:cut]))
					if p.read(r); r.Err() == nil {
						t.Fatalf("decoded from %d of %d bytes", cut, len(enc))
					}
				}
			})
		}
	}
}

// TestStreamingWriterMatchesMemory pins that a Writer with a destination
// hands on exactly the bytes the in-memory form holds, across several
// spills, and that the destination's write error surfaces from Flush.
func TestStreamingWriterMatchesMemory(t *testing.T) {
	big := make([]float64, 3000) // 24 KB: several spills
	for i := range big {
		big[i] = float64(i) / 3
	}
	encode := func(w *Writer) {
		w.Prelude("MAGIC", 7)
		w.Floats(big)
		w.String("tail")
	}
	var mem Writer
	encode(&mem)
	var dst bytes.Buffer
	w := NewWriter(&dst)
	encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), mem.Bytes()) {
		t.Fatalf("streamed %d bytes differ from the %d in memory", dst.Len(), len(mem.Bytes()))
	}

	readOnly, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	w = NewWriter(readOnly)
	encode(w)
	if err := w.Flush(); err == nil {
		t.Fatal("writes to a read-only destination reported no error")
	}
}

// TestWriterRefusesWhatReaderRefuses pins the symmetric string cap: a
// string one byte over it must fail at save time (with nothing written),
// not produce an artifact that can never load.
func TestWriterRefusesWhatReaderRefuses(t *testing.T) {
	var w Writer
	if w.String(strings.Repeat("x", stringCap+1)); w.Err() == nil {
		t.Fatal("Writer.String accepted a string Reader.String rejects")
	}
	if len(w.Bytes()) != 0 {
		t.Fatalf("refused write left %d bytes behind", len(w.Bytes()))
	}
	// The failure is latched: later writes are dropped, not appended.
	if w.U32(1); len(w.Bytes()) != 0 {
		t.Fatal("a failed Writer accepted more bytes")
	}
	var w2 Writer
	if w2.Ints([]int{-1}); w2.Err() == nil {
		t.Fatal("Writer.Ints accepted a negative value")
	}
	var w3 Writer
	if w3.Blob(make([]byte, MaxFramePayload+1)); w3.Err() == nil || len(w3.Bytes()) != 0 {
		t.Fatal("Writer.Blob accepted a blob Reader.Blob rejects")
	}
}

// prefix is an input holding only a u32 length word.
func prefix(n uint32) io.Reader {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	return bytes.NewReader(b[:])
}

// TestImplausibleInputRejected feeds the readers length prefixes past their
// caps (with no payload behind them: the check must fire before any
// allocation or read), a mismatched exact-length block, a bool byte that is
// neither 0 nor 1, and a wrong magic and version.
func TestImplausibleInputRejected(t *testing.T) {
	cases := []struct {
		name string
		src  io.Reader
		read func(r *Reader)
	}{
		{"string-over-cap", prefix(stringCap + 1), func(r *Reader) { _ = r.String() }},
		{"blob-over-cap", prefix(MaxFramePayload + 1), func(r *Reader) { r.Blob() }},
		{"floats-over-cap", prefix(maxLen/8 + 1), func(r *Reader) { r.Floats() }},
		{"ints-over-cap", prefix(maxLen/4 + 1), func(r *Reader) { r.Ints() }},
		{"floats-into-mismatch", prefix(3), func(r *Reader) { r.FloatsInto(make([]float64, 2)) }},
		{"bool-byte-2", bytes.NewReader([]byte{2}), func(r *Reader) { r.Bool() }},
		{"bad-magic", strings.NewReader("BPROMXX\x01\x00\x00\x00"), func(r *Reader) { r.Prelude("BPROMNN", 1) }},
		{"bad-version", strings.NewReader("BPROMNN\x02\x00\x00\x00"), func(r *Reader) { r.Prelude("BPROMNN", 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.src)
			tc.read(r)
			err := r.Err()
			if err == nil {
				t.Fatal("expected an error")
			}
			if strings.Contains(err.Error(), "EOF") {
				t.Fatalf("rejected by running out of input, not by validation: %v", err)
			}
		})
	}
}

// TestCountBoundedByRemainingInput pins the in-memory plausibility check: a
// length prefix that is under the format cap but claims more than the input
// still holds is refused before the slice is allocated.
func TestCountBoundedByRemainingInput(t *testing.T) {
	var w Writer
	w.U32(1 << 24) // 16 Mi floats = 128 MiB, with 8 bytes behind the prefix
	w.F64(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(w.Bytes()))
	if r.Floats() != nil || r.Err() == nil {
		t.Fatal("a float block larger than the input was accepted")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("allocated %d bytes while refusing a block the input cannot hold", grown)
	}
}

// TestStickyAfterFirstError pins the contract serializers lean on: after
// the first failure every later read returns the zero value and allocates
// nothing, and Err keeps reporting the first failure.
func TestStickyAfterFirstError(t *testing.T) {
	// Valid fields follow the bad bool byte; none of them may be decoded.
	var w Writer
	w.U8(2)
	for _, p := range pairs() {
		p.write(&w)
	}
	r := NewReader(bytes.NewReader(w.Bytes()))
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("invalid bool byte accepted")
	}
	dst := []float64{1, 2}
	checkZero := func() {
		if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.F64() != 0 || r.Bool() ||
			r.String() != "" || r.Blob() != nil || r.Floats() != nil || r.Ints() != nil {
			t.Fatal("a failed Reader returned a non-zero value")
		}
		r.FloatsInto(dst)
		r.Prelude("BPROMNN", 1)
	}
	checkZero()
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("a failed Reader wrote into the caller's block: %v", dst)
	}
	if allocs := testing.AllocsPerRun(100, checkZero); allocs != 0 {
		t.Fatalf("a failed Reader allocated %v times per round of reads", allocs)
	}
	r.Failf("a later failure")
	if r.Err() != first {
		t.Fatalf("first failure %q was replaced by %q", first, r.Err())
	}
}

// TestSaveLoadFile round-trips the file helpers and checks that open,
// encode and decode failures all surface.
func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.bin")
	if err := SaveFile(path, func(w *Writer) { w.Prelude("MAGIC", 3); w.String("payload") }); err != nil {
		t.Fatal(err)
	}
	load := func(r *Reader) (string, error) {
		r.Prelude("MAGIC", 3)
		return r.String(), r.Err()
	}
	if got, err := LoadFile(path, load); err != nil || got != "payload" {
		t.Fatalf("LoadFile = %q, %v", got, err)
	}
	if _, err := LoadFile(path+".missing", load); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := LoadFile(path, func(r *Reader) (string, error) {
		r.Prelude("OTHER", 3)
		return "", r.Err()
	}); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("decode failure should name the file: %v", err)
	}
	if err := SaveFile(path, func(w *Writer) { w.Failf("refused") }); err == nil {
		t.Fatal("encode failure not surfaced by SaveFile")
	}
	if err := SaveFile(filepath.Join(path, "below-a-file"), func(*Writer) {}); err == nil {
		t.Fatal("create failure not surfaced by SaveFile")
	}
}

// TestFrameRoundTrip pins the frame as a wire format (checkpoint export and
// resume): EncodeFrame/DecodeFrame round-trip exactly, and any damage —
// truncation, trailing bytes, an impossible length or a flipped payload
// byte — surfaces as ErrCorrupt instead of garbage bytes.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("checkpoint bytes travel inside one CRC frame")
	frame, err := EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round-trip: %q", got)
	}
	flipped := append([]byte(nil), frame...)
	flipped[FrameHeaderSize] ^= 0x01
	oversized := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(oversized, MaxFramePayload+1)
	for name, bad := range map[string][]byte{
		"truncated header":  frame[:FrameHeaderSize-1],
		"truncated payload": frame[:len(frame)-3],
		"trailing garbage":  append(append([]byte(nil), frame...), 0),
		"oversized length":  oversized,
		"flipped byte":      flipped,
	} {
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
	if _, err := EncodeFrame(make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("EncodeFrame accepted a payload DecodeFrame rejects")
	}
}

// TestFrameInPlace pins the reserve/seal pair the copying EncodeFrame is
// written over: a frame built behind other bytes in the caller's buffer is
// byte-identical to EncodeFrame's, leaves what precedes it alone, and the
// payload-size refusal is the same one.
func TestFrameInPlace(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0x5a, 0xa5}, 700)} {
		want, err := EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		buf := append(ReserveFrame(append([]byte(nil), prefix...)), payload...)
		if err := SealFrame(buf[len(prefix):]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:len(prefix)], prefix) || !bytes.Equal(buf[len(prefix):], want) {
			t.Fatalf("in-place frame %x, EncodeFrame %x", buf, want)
		}
		if got, err := DecodeFrame(buf[len(prefix):]); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("in-place frame does not decode: %v", err)
		}
	}
	if err := SealFrame(make([]byte, FrameHeaderSize+MaxFramePayload+1)); err == nil {
		t.Fatal("SealFrame sealed a payload DecodeFrame rejects")
	}
}

// TestScanFrames pins the append-only file reading: whole frames are
// returned, a partial tail ends the scan at goodLen without an error, and a
// damaged frame fails with ErrCorrupt naming its offset.
func TestScanFrames(t *testing.T) {
	var image bytes.Buffer
	records := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xab}, 300)}
	for _, p := range records {
		if err := AppendFrame(&image, p); err != nil {
			t.Fatal(err)
		}
	}
	full := image.Bytes()
	payloads, goodLen, err := ScanFrames(bytes.NewReader(full))
	if err != nil || goodLen != int64(len(full)) || len(payloads) != len(records) {
		t.Fatalf("clean scan: %d payloads, goodLen %d of %d, err %v", len(payloads), goodLen, len(full), err)
	}
	for i := range records {
		if !bytes.Equal(payloads[i], records[i]) {
			t.Fatalf("payload %d: %q", i, payloads[i])
		}
	}
	secondEnds := int64(2*FrameHeaderSize + len(records[0]))
	for _, cut := range []int{1, 3, 300, 300 + FrameHeaderSize - 1} {
		payloads, goodLen, err := ScanFrames(bytes.NewReader(full[:len(full)-cut]))
		if err != nil || goodLen != secondEnds || len(payloads) != 2 {
			t.Fatalf("cut %d: %d payloads, goodLen %d (want %d), err %v", cut, len(payloads), goodLen, secondEnds, err)
		}
	}
	damaged := append([]byte(nil), full...)
	damaged[secondEnds+FrameHeaderSize] ^= 0xff
	_, _, err = ScanFrames(bytes.NewReader(damaged))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "offset 21") {
		t.Fatalf("damaged third frame: %v", err)
	}
}
