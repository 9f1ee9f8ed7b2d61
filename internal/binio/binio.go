// Package binio is the one place that knows how a field, a record and a
// frame become bytes. Every persisted or wire-carried binary layout in the
// repository is spelled with it, so the conventions exist once:
//
//   - The codec (this file): fixed-width little-endian integers, float64
//     bit patterns, one-byte bools, and u32-length-prefixed strings, blobs
//     and slices, written by a Writer and read back by a Reader. Both are
//     sticky: the first failure is latched and returned by Err, every later
//     write is dropped and every later read returns the zero value and
//     allocates nothing, so a serializer is a straight list of fields with
//     one error check at the end. Readers validate length prefixes against
//     plausibility caps — and against what is left of an in-memory input —
//     before allocating; the Writer refuses what the Reader would refuse, so
//     nothing that saves can fail to load.
//   - The prelude (Writer.Prelude / Reader.Prelude, SaveFile / LoadFile):
//     the raw magic string and u32 format version that open a file artifact.
//   - The frame (frame.go): u32 length + CRC-32 + payload, the atomicity and
//     integrity unit of the job journal, of checkpoints on the wire and of
//     the binary predict messages. EncodeFrame copies a payload into a new
//     frame; ReserveFrame / SealFrame build one in place in the caller's
//     buffer, and are what EncodeFrame itself is written over, so the header
//     layout has one writer.
//
// Which artifact uses what:
//
//	nn checkpoint (.bin)       prelude "BPROMNN" v1, then codec fields
//	detector artifact (.bpd)   prelude "BPROMDET" v1, then the data, meta
//	                           and vp sections as codec fields
//	audit checkpoint (BPCK)    codec fields (u64 magic + version of its own),
//	                           carried as a blob in a journal record and as
//	                           one frame on the wire (GET …/checkpoint,
//	                           resume.checkpoint)
//	job journal (jobs.journal) a sequence of frames, one codec-encoded
//	                           record each
//	predict request / response one frame each, under Content-Type
//	(internal/mlaas)           application/x-bprom-predict: counts, a flag
//	                           byte and raw float64 rows, written in place
//	                           in a pooled buffer
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// maxLen caps slice length prefixes at 1 GiB of elements. Nothing in an
// artifact is remotely that large; a bigger prefix means a corrupt or
// malicious input.
const maxLen = 1 << 30

// maxString caps string lengths at 64 KiB (names, notes, arch tags, error
// messages).
const maxString = 1 << 16

// spillSize is how many buffered bytes a Writer with a destination holds
// before handing them on.
const spillSize = 4096

// Writer encodes fields. The zero value encodes into memory (Bytes);
// NewWriter streams to a destination instead (Flush).
type Writer struct {
	dst io.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer that streams to dst. It buffers; call Flush
// when done.
func NewWriter(dst io.Writer) *Writer { return &Writer{dst: dst} }

// Err returns the first failure, or nil.
func (w *Writer) Err() error { return w.err }

// Failf latches a caller-detected failure (something that must not be
// serialized) unless an earlier one is already latched.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Reset points a destination-less Writer at dst: later fields are appended
// after dst's contents, in dst's storage while its capacity lasts, and any
// latched failure is cleared. A caller that encodes into a buffer it keeps —
// the job store builds every journal frame in one — allocates only when a
// record outgrows it.
func (w *Writer) Reset(dst []byte) { w.buf, w.err = dst, nil }

// Grow makes room for n more bytes, so an encoding whose length is known
// up front is written into one exactly sized allocation.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = append(make([]byte, 0, len(w.buf)+n), w.buf...)
	}
}

// Bytes returns what a destination-less Writer has encoded. Check Err
// first: after a failure the bytes are an unusable prefix.
func (w *Writer) Bytes() []byte { return w.buf }

// Flush hands buffered bytes to the destination and returns the first
// failure, the destination's own write errors included.
func (w *Writer) Flush() error {
	if w.err == nil && w.dst != nil && len(w.buf) > 0 {
		if _, err := w.dst.Write(w.buf); err != nil {
			w.err = fmt.Errorf("binio: write: %w", err)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

// ok reports whether the Writer still accepts bytes, spilling a full buffer
// first.
func (w *Writer) ok() bool {
	if len(w.buf) >= spillSize && w.dst != nil {
		w.Flush()
	}
	return w.err == nil
}

// U8 writes one byte (layer and node tags).
func (w *Writer) U8(v byte) {
	if w.ok() {
		w.buf = append(w.buf, v)
	}
}

// U32 writes v as 4 little-endian bytes.
func (w *Writer) U32(v uint32) {
	if w.ok() {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// U64 writes v as 8 little-endian bytes.
func (w *Writer) U64(v uint64) {
	if w.ok() {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// F64 writes the IEEE-754 bit pattern of v (exact round-trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes v as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.U8(b)
}

// String writes a u32 length prefix followed by the raw bytes.
func (w *Writer) String(s string) {
	if w.sized(len(s), maxString, "string") {
		w.buf = append(w.buf, s...)
	}
}

// Blob writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Blob(b []byte) {
	if w.sized(len(b), MaxFramePayload, "blob") {
		w.buf = append(w.buf, b...)
	}
}

// sized writes the length prefix of a string or blob, refusing — before
// anything is written — a length over the cap the Reader enforces.
func (w *Writer) sized(n, limit int, what string) bool {
	if n > limit {
		w.Failf("binio: %s length %d exceeds the %d-byte cap", what, n, limit)
		return false
	}
	w.U32(uint32(n))
	return w.ok()
}

// Floats writes a u32 length prefix followed by each float64's bit pattern.
func (w *Writer) Floats(data []float64) {
	// In memory, make room at least doubling (as bytes.Buffer does) rather
	// than at append's 1.25x: vectors are what make an encoding long.
	if need := len(w.buf) + 4 + 8*len(data); w.dst == nil && need > cap(w.buf) {
		w.buf = append(make([]byte, 0, max(need, 2*cap(w.buf))), w.buf...)
	}
	w.U32(uint32(len(data)))
	for _, v := range data {
		w.F64(v)
	}
}

// Ints writes a u32 length prefix followed by each value as a u32. Values
// must be non-negative and fit in 32 bits (sample indices, labels).
func (w *Writer) Ints(data []int) {
	w.U32(uint32(len(data)))
	for _, v := range data {
		if v < 0 || int64(v) > math.MaxUint32 {
			w.Failf("binio: int %d not encodable as u32", v)
			return
		}
		w.U32(uint32(v))
	}
}

// Prelude opens a file artifact: the magic string's raw bytes, then the u32
// format version.
func (w *Writer) Prelude(magic string, version uint32) {
	if w.ok() {
		w.buf = append(w.buf, magic...)
	}
	w.U32(version)
}

// Reader decodes what a Writer encoded.
type Reader struct {
	src io.Reader
	err error
	buf [8]byte
}

// NewReader returns a Reader over src, buffering it unless it already is
// (a *bufio.Reader, or the in-memory readers of package bytes).
func NewReader(src io.Reader) *Reader {
	if _, buffered := src.(io.ByteReader); !buffered {
		src = bufio.NewReader(src)
	}
	return &Reader{src: src}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a caller-detected failure (a decoded value out of range)
// unless an earlier one is already latched: the first failure wins, so a
// range check on the zero a failed read returned never masks the read error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// fixed reads n <= 8 bytes; after a failure they are all zero.
func (r *Reader) fixed(n int, what string) []byte {
	b := r.buf[:n]
	if r.err == nil {
		r.raw(b, what)
	}
	if r.err != nil {
		clear(b)
	}
	return b
}

// raw fills dst, which the caller sized from a checked count.
func (r *Reader) raw(dst []byte, what string) {
	if _, err := io.ReadFull(r.src, dst); err != nil {
		r.err = fmt.Errorf("binio: read %s: %w", what, err)
	}
}

// count reads a u32 element count and refuses one whose elements (size
// bytes each) would exceed limit bytes, or what is left of an in-memory
// input. It returns 0 after any failure, so callers allocate nothing.
func (r *Reader) count(size, limit int64, what string) int {
	n := int64(r.U32())
	if n*size > limit {
		r.Failf("binio: implausible %s length %d", what, n)
	} else if src, ok := r.src.(interface{ Len() int }); ok && n*size > int64(src.Len()) {
		r.Failf("binio: %s of length %d in %d remaining bytes: %w", what, n, src.Len(), io.ErrUnexpectedEOF)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.fixed(1, "u8")[0] }

// U32 reads 4 little-endian bytes.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4, "u32")) }

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8, "u64")) }

// F64 reads one float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool; any value other than 0 or 1 is a format
// error.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Failf("binio: invalid bool byte %d", b)
	}
	return b == 1
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.bytes(maxString, "string")) }

// Blob reads a length-prefixed byte block into a fresh slice.
func (r *Reader) Blob() []byte { return r.bytes(MaxFramePayload, "blob") }

func (r *Reader) bytes(limit int64, what string) []byte {
	b := make([]byte, r.count(1, limit, what))
	if r.raw(b, what); r.err != nil {
		return nil
	}
	return b
}

// Floats reads a length-prefixed float64 slice.
func (r *Reader) Floats() []float64 {
	out := make([]float64, r.count(8, maxLen, "float block"))
	if r.floats(out); r.err != nil {
		return nil
	}
	return out
}

// FloatsInto reads a length-prefixed float64 block whose length must match
// len(dst) exactly — for fields whose size the caller already knows (layer
// weights sized by the checkpoint header).
func (r *Reader) FloatsInto(dst []float64) {
	if n := r.U32(); r.err == nil && int(n) != len(dst) {
		r.Failf("binio: float block length %d, expected %d", n, len(dst))
	}
	r.floats(dst)
}

func (r *Reader) floats(dst []float64) {
	for i := 0; i < len(dst) && r.err == nil; i++ {
		dst[i] = r.F64()
	}
}

// Ints reads a length-prefixed u32 slice as ints.
func (r *Reader) Ints() []int {
	out := make([]int, r.count(4, maxLen, "int block"))
	for i := 0; i < len(out) && r.err == nil; i++ {
		out[i] = int(r.U32())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Prelude reads a file artifact's opening and refuses a different magic or
// format version.
func (r *Reader) Prelude(magic string, version uint32) {
	if r.err != nil {
		return
	}
	got := make([]byte, len(magic))
	if r.raw(got, "magic"); r.err == nil && string(got) != magic {
		r.Failf("binio: bad magic %q, want %q", got, magic)
	}
	if v := r.U32(); r.err == nil && v != version {
		r.Failf("binio: unsupported %s format version %d (this build reads %d)", magic, v, version)
	}
}

// SaveFile creates or truncates path and writes what save encodes,
// surfacing encode, write and close failures alike.
func SaveFile(path string, save func(*Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("binio: %w", err)
	}
	w := NewWriter(f)
	save(w)
	err = w.Flush()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("binio: %w", cerr)
	}
	return err
}

// LoadFile opens path and returns what load decodes from it.
func LoadFile[T any](path string, load func(*Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("binio: %w", err)
	}
	defer f.Close()
	v, err := load(NewReader(f))
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
