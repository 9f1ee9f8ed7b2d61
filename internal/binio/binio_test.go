package binio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// stringCap is the format's string ceiling, spelled out here rather than
// borrowed from the implementation so the tests pin the wire contract.
const stringCap = 1 << 16

// pair is one Write/Read pair exercised on one value: write encodes the
// value, read decodes it back for comparison.
type pair struct {
	name  string
	write func(w io.Writer) error
	read  func(r io.Reader) (any, error)
	want  any
}

func pairs() []pair {
	floats := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64}
	ints := []int{0, 7, math.MaxUint32}
	return []pair{
		{"u32", func(w io.Writer) error { return WriteU32(w, 0xdeadbeef) },
			func(r io.Reader) (any, error) { return ReadU32(r) }, uint32(0xdeadbeef)},
		{"u64", func(w io.Writer) error { return WriteU64(w, 1<<63|5) },
			func(r io.Reader) (any, error) { return ReadU64(r) }, uint64(1<<63 | 5)},
		{"f64", func(w io.Writer) error { return WriteF64(w, -0.1) },
			func(r io.Reader) (any, error) { return ReadF64(r) }, -0.1},
		{"bool-true", func(w io.Writer) error { return WriteBool(w, true) },
			func(r io.Reader) (any, error) { return ReadBool(r) }, true},
		{"bool-false", func(w io.Writer) error { return WriteBool(w, false) },
			func(r io.Reader) (any, error) { return ReadBool(r) }, false},
		{"string", func(w io.Writer) error { return WriteString(w, "résnet-lite") },
			func(r io.Reader) (any, error) { return ReadString(r) }, "résnet-lite"},
		{"string-at-cap", func(w io.Writer) error { return WriteString(w, strings.Repeat("x", stringCap)) },
			func(r io.Reader) (any, error) { return ReadString(r) }, strings.Repeat("x", stringCap)},
		{"floats", func(w io.Writer) error { return WriteFloats(w, floats) },
			func(r io.Reader) (any, error) { return ReadFloats(r) }, floats},
		{"floats-into", func(w io.Writer) error { return WriteFloats(w, floats) },
			func(r io.Reader) (any, error) {
				dst := make([]float64, len(floats))
				return dst, ReadFloatsInto(r, dst)
			}, floats},
		{"ints", func(w io.Writer) error { return WriteInts(w, ints) },
			func(r io.Reader) (any, error) { return ReadInts(r) }, ints},
	}
}

// TestRoundTripAndTruncation round-trips every Write/Read pair and then
// replays every proper prefix of the encoding: a truncated artifact must
// fail with an error, never decode to a value.
func TestRoundTripAndTruncation(t *testing.T) {
	for _, p := range pairs() {
		t.Run(p.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := p.write(&buf); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			got, err := p.read(bytes.NewReader(enc))
			if err != nil {
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
				if _, err := p.read(bytes.NewReader(enc[:cut])); err == nil {
					t.Fatalf("decoded from %d of %d bytes", cut, len(enc))
				}
			}
		})
	}
}

// TestWriterRefusesWhatReaderRefuses pins the symmetric string cap: a
// string one byte over it must fail at save time (with nothing written),
// not produce an artifact that can never load.
func TestWriterRefusesWhatReaderRefuses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteString(&buf, strings.Repeat("x", stringCap+1)); err == nil {
		t.Fatal("WriteString accepted a string ReadString rejects")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused write left %d bytes behind", buf.Len())
	}
	if err := WriteInts(&buf, []int{-1}); err == nil {
		t.Fatal("WriteInts accepted a negative value")
	}
}

// TestImplausibleInputRejected feeds the readers length prefixes past their
// caps (with no payload behind them: the check must fire before any
// allocation or read), a mismatched exact-length block, and a bool byte
// that is neither 0 nor 1.
func TestImplausibleInputRejected(t *testing.T) {
	prefix := func(n uint32) io.Reader {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], n)
		return bytes.NewReader(b[:])
	}
	cases := []struct {
		name string
		read func() error
	}{
		{"string-over-cap", func() error { _, err := ReadString(prefix(stringCap + 1)); return err }},
		{"floats-over-cap", func() error { _, err := ReadFloats(prefix(maxLen/8 + 1)); return err }},
		{"ints-over-cap", func() error { _, err := ReadInts(prefix(maxLen/4 + 1)); return err }},
		{"floats-into-mismatch", func() error { return ReadFloatsInto(prefix(3), make([]float64, 2)) }},
		{"bool-byte-2", func() error { _, err := ReadBool(bytes.NewReader([]byte{2})); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.read()
			if err == nil {
				t.Fatal("expected an error")
			}
			if strings.Contains(err.Error(), "EOF") {
				t.Fatalf("rejected by running out of input, not by validation: %v", err)
			}
		})
	}
}
