// Package binio provides the little-endian binary encoding primitives
// shared by the persistent artifact formats (the bprom detector artifact
// and its meta / vp / data sections). The conventions mirror the nn
// checkpoint format (internal/nn/serialize.go): fixed-width little-endian
// integers, float64 bit patterns, and length-prefixed strings and slices,
// so every artifact round-trips byte-for-byte.
//
// All readers validate length prefixes against generous plausibility caps
// before allocating, so a corrupt or truncated artifact fails with an error
// instead of an absurd allocation.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxLen caps length prefixes (strings, slices) at 1Gi entries. Nothing in
// a detector artifact is remotely that large; a bigger prefix means a
// corrupt or malicious file.
const maxLen = 1 << 30

// maxString caps string lengths at 64 KiB (names, notes, arch tags). The
// writer enforces the same cap the reader does, so nothing that saves can
// fail to load.
const maxString = 1 << 16

// WriteU32 writes v as 4 little-endian bytes.
func WriteU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("binio: write u32: %w", err)
	}
	return nil
}

// ReadU32 reads 4 little-endian bytes as a uint32.
func ReadU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("binio: read u32: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// WriteU64 writes v as 8 little-endian bytes.
func WriteU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("binio: write u64: %w", err)
	}
	return nil
}

// ReadU64 reads 8 little-endian bytes as a uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("binio: read u64: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteF64 writes the IEEE-754 bit pattern of v (exact round-trip).
func WriteF64(w io.Writer, v float64) error {
	return WriteU64(w, math.Float64bits(v))
}

// ReadF64 reads one float64 bit pattern.
func ReadF64(r io.Reader) (float64, error) {
	bits, err := ReadU64(r)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// WriteBool writes v as one byte (0 or 1).
func WriteBool(w io.Writer, v bool) error {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("binio: write bool: %w", err)
	}
	return nil
}

// ReadBool reads one byte as a bool; any value other than 0 or 1 is a
// format error.
func ReadBool(r io.Reader) (bool, error) {
	var buf [1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return false, fmt.Errorf("binio: read bool: %w", err)
	}
	switch buf[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("binio: invalid bool byte %d", buf[0])
	}
}

// WriteString writes a u32 length prefix followed by the raw bytes. Strings
// longer than the cap ReadString enforces are refused before anything is
// written.
func WriteString(w io.Writer, s string) error {
	if len(s) > maxString {
		return fmt.Errorf("binio: string length %d exceeds the %d-byte cap", len(s), maxString)
	}
	if err := WriteU32(w, uint32(len(s))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("binio: write string: %w", err)
	}
	return nil
}

// ReadString reads a length-prefixed string.
func ReadString(r io.Reader) (string, error) {
	n, err := ReadU32(r)
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("binio: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("binio: read string: %w", err)
	}
	return string(buf), nil
}

// WriteFloats writes a u32 length prefix followed by each float64's bit
// pattern.
func WriteFloats(w io.Writer, data []float64) error {
	if err := WriteU32(w, uint32(len(data))); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("binio: write floats: %w", err)
		}
	}
	return nil
}

// ReadFloats reads a length-prefixed float64 slice.
func ReadFloats(r io.Reader) ([]float64, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxLen/8 {
		return nil, fmt.Errorf("binio: implausible float count %d", n)
	}
	out := make([]float64, n)
	if err := readFloatData(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFloatsInto reads a length-prefixed float64 block whose length must
// match len(dst) exactly — for fields whose size the caller already knows
// (e.g. layer weights sized by the checkpoint header).
func ReadFloatsInto(r io.Reader, dst []float64) error {
	n, err := ReadU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(dst) {
		return fmt.Errorf("binio: float block length %d, expected %d", n, len(dst))
	}
	return readFloatData(r, dst)
}

func readFloatData(r io.Reader, dst []float64) error {
	var buf [8]byte
	for i := range dst {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return fmt.Errorf("binio: read floats: %w", err)
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return nil
}

// WriteInts writes a u32 length prefix followed by each value as a u32.
// Values must be non-negative and fit in 32 bits (sample indices, labels).
func WriteInts(w io.Writer, data []int) error {
	if err := WriteU32(w, uint32(len(data))); err != nil {
		return err
	}
	for _, v := range data {
		if v < 0 || int64(v) > int64(^uint32(0)) {
			return fmt.Errorf("binio: int %d not encodable as u32", v)
		}
		if err := WriteU32(w, uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadInts reads a length-prefixed u32 slice as ints.
func ReadInts(r io.Reader) ([]int, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxLen/4 {
		return nil, fmt.Errorf("binio: implausible int count %d", n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := ReadU32(r)
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}
