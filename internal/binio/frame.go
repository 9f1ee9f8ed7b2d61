package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: u32 payload length, u32 CRC-32 (IEEE) of the payload, then
// the payload bytes; both header words little-endian like the codec's. A
// frame is the atomicity unit of an append-only file: AppendFrame issues a
// single Write, so a crash can only ever leave a partial frame at the tail,
// never a torn earlier one. It is also the wire form of an exported audit
// checkpoint and of the binary predict messages (internal/mlaas), so transit
// corruption is caught by the same CRC that guards the journal on disk.
// ReserveFrame / SealFrame build a frame in place in the caller's buffer;
// EncodeFrame is the copying form over the same pair.

const (
	// FrameHeaderSize is the length + CRC prefix of every frame.
	FrameHeaderSize = 8
	// MaxFramePayload bounds a single frame; checkpoints for even very
	// high-dimensional prompts are far below it.
	MaxFramePayload = 1 << 26
)

// ErrCorrupt reports a frame whose CRC does not match its payload (or whose
// header cannot be genuine) — real corruption, as opposed to a truncated
// crash tail. ScanFrames errors carry the byte offset of the bad frame;
// match with errors.Is.
var ErrCorrupt = errors.New("binio: frame corrupt")

// ReserveFrame appends the header of a frame that is not written yet. The
// caller appends the payload after it and hands the whole frame — header
// first — to SealFrame: a frame built in place, in the caller's own buffer.
func ReserveFrame(dst []byte) []byte {
	return append(dst, make([]byte, FrameHeaderSize)...)
}

// SealFrame fills in the header ReserveFrame left open at the start of frame
// for the payload that now follows it. It is the one writer of the header
// layout.
func SealFrame(frame []byte) error {
	payload := frame[FrameHeaderSize:]
	if err := checkPayloadSize(len(payload)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// checkPayloadSize refuses a payload DecodeFrame and ScanFrames would refuse.
func checkPayloadSize(n int) error {
	if n > MaxFramePayload {
		return fmt.Errorf("binio: payload of %d bytes exceeds the frame limit", n)
	}
	return nil
}

// EncodeFrame returns payload wrapped in one frame.
func EncodeFrame(payload []byte) ([]byte, error) {
	// Checked here too, so an oversized payload is refused before it is copied.
	if err := checkPayloadSize(len(payload)); err != nil {
		return nil, err
	}
	frame := append(ReserveFrame(make([]byte, 0, FrameHeaderSize+len(payload))), payload...)
	if err := SealFrame(frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// DecodeFrame verifies and unwraps exactly one frame. Truncated, oversized,
// trailing-garbage or CRC-mismatched input fails with ErrCorrupt.
func DecodeFrame(frame []byte) ([]byte, error) {
	if len(frame) < FrameHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte frame is shorter than its header", ErrCorrupt, len(frame))
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame claims %d-byte payload", ErrCorrupt, length)
	}
	payload := frame[FrameHeaderSize:]
	if len(payload) != int(length) {
		return nil, fmt.Errorf("%w: frame holds %d payload bytes, header claims %d", ErrCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: frame has CRC %#08x, payload hashes to %#08x", ErrCorrupt, sum, got)
	}
	return payload, nil
}

// AppendFrame writes payload to w as one frame, in a single Write call.
func AppendFrame(w io.Writer, payload []byte) error {
	frame, err := EncodeFrame(payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ScanFrames reads frames until the input ends and returns their payloads
// and goodLen, the offset just past the last whole frame. A clean end at a
// frame boundary and a partial frame at the tail both end the scan normally
// (everything past goodLen is a crash artifact to truncate away); a CRC
// mismatch or an impossible length word fails with ErrCorrupt and the
// frame's offset.
func ScanFrames(r io.Reader) (payloads [][]byte, goodLen int64, err error) {
	hdr := make([]byte, FrameHeaderSize)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return payloads, goodLen, tailOrError(err, goodLen)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxFramePayload {
			// Not distinguishable from a torn tail by framing alone, but
			// AppendFrame cannot have written a length this large.
			return payloads, goodLen, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrCorrupt, goodLen, length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return payloads, goodLen, tailOrError(err, goodLen)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return payloads, goodLen, fmt.Errorf("%w: frame at offset %d has CRC %#08x, payload hashes to %#08x", ErrCorrupt, goodLen, sum, got)
		}
		payloads = append(payloads, payload)
		goodLen += FrameHeaderSize + int64(length)
	}
}

// tailOrError maps running out of input mid-frame (or exactly between
// frames) to a normal end of scan.
func tailOrError(err error, offset int64) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return fmt.Errorf("binio: reading frame at offset %d: %w", offset, err)
}
