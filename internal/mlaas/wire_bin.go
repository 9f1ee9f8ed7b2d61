package mlaas

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"bprom/internal/binio"
	"bprom/internal/tensor"
)

// The binary spelling of the two predict messages: one binio frame (u32
// payload length, u32 CRC-32) around
//
//	request:  u32 rows, u32 width,   u8 flags, rows×width float64
//	response: u32 rows, u32 classes, rows×classes float64, u32 length, block
//
// everything little-endian, floats as their IEEE-754 bit patterns. Flag bit 0
// is the request's "screen":false; every other bit must be zero. block is the
// JSON of the response's "screening" array (length 0 when there is none): it
// is small, irregular and already encoding/json's in the JSON spelling.
//
// The frame carries exactly the values JSON can — which is why both directions
// refuse NaN and ±Inf, though the bits could hold them: a binary client must
// not reach model inputs a JSON client cannot, and a model gone non-finite is
// the same 500 in both spellings. A row withheld under the reject policy,
// null in JSON, goes out as zeros: its confidences never reach the wire.

// ContentTypeBinaryPredict is the Content-Type of a binary predict request
// and of the response to one. Endpoints that accept it list it under "wire"
// in their info document; Client uses it against those and JSON against all
// others.
const ContentTypeBinaryPredict = "application/x-bprom-predict"

const (
	binRequestHeader  = 9 // u32 rows, u32 width, u8 flags
	binResponseHeader = 8 // u32 rows, u32 classes
	binFlagNoScreen   = 1 << 0

	// float64ExpMask selects the exponent bits: all set means NaN or ±Inf.
	float64ExpMask = 0x7ff << 52
)

// binaryRequestSize is the exact length of a binary predict request of rows
// rows — and, at rows = max_batch, the body cap of the content type.
func binaryRequestSize(rows, dim int) int64 {
	return binio.FrameHeaderSize + binRequestHeader + 8*int64(rows)*int64(dim)
}

// servesBinaryPredict reports whether a full batch fits one frame, i.e.
// whether the model's info document may advertise the content type.
func servesBinaryPredict(maxBatch, dim int) bool {
	return binaryRequestSize(maxBatch, dim) <= binio.FrameHeaderSize+binio.MaxFramePayload
}

// appendFloatsLE appends data (rows of width values) as little-endian bit
// patterns. Rows whose screening entry is Rejected go out as zeros, unread
// (screening may be nil); the first NaN or ±Inf elsewhere is an error.
func appendFloatsLE(dst []byte, data []float64, width int, screening []Screening) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(data))[:off+8*len(data)]
	for i := range len(data) / width {
		out := dst[off+8*i*width : off+8*(i+1)*width]
		if screening != nil && screening[i].Rejected {
			clear(out)
			continue
		}
		for j, f := range data[i*width : (i+1)*width] {
			bits := math.Float64bits(f)
			if bits&float64ExpMask == float64ExpMask {
				return dst, fmt.Errorf("non-finite value %v (row %d, column %d)", f, i, j)
			}
			binary.LittleEndian.PutUint64(out[8*j:], bits)
		}
	}
	return dst, nil
}

// floatsLE fills dst (rows of width values) from len(dst) little-endian bit
// patterns, refusing the first NaN or ±Inf.
func floatsLE(dst []float64, src []byte, width int) error {
	for i := range dst {
		bits := binary.LittleEndian.Uint64(src[8*i:])
		if bits&float64ExpMask == float64ExpMask {
			return fmt.Errorf("non-finite value %v (row %d, column %d)", math.Float64frombits(bits), i/width, i%width)
		}
		dst[i] = math.Float64frombits(bits)
	}
	return nil
}

func appendPredictRequestBinary(dst []byte, inputs []float64, dim int, optOut bool) ([]byte, error) {
	start := len(dst)
	dst = slices.Grow(dst, int(binaryRequestSize(len(inputs)/dim, dim)))
	dst = binio.ReserveFrame(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(inputs)/dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	var flags byte
	if optOut {
		flags = binFlagNoScreen
	}
	dst = append(dst, flags)
	dst, err := appendFloatsLE(dst, inputs, dim, nil)
	if err != nil {
		return dst, err
	}
	return dst, binio.SealFrame(dst[start:])
}

func appendPredictResponseBinary(dst []byte, probs []float64, classes int, screening []Screening) ([]byte, error) {
	var block []byte
	if len(screening) > 0 {
		var err error
		if block, err = json.Marshal(screening); err != nil {
			return dst, err
		}
	}
	start := len(dst)
	dst = slices.Grow(dst, binio.FrameHeaderSize+binResponseHeader+8*len(probs)+4+len(block))
	dst = binio.ReserveFrame(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(probs)/classes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(classes))
	dst, err := appendFloatsLE(dst, probs, classes, screening)
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(block)))
	dst = append(dst, block...)
	return dst, binio.SealFrame(dst[start:])
}

// predictRequestBinary is the binary path of parsePredictRequest. It refuses
// in the JSON path's order — not a message at all, empty, too many rows,
// wrong width — and sizes the tensor only from a row count already held
// against maxBatch and a payload length already held against the row count.
func predictRequestBinary(dst []float64, body []byte, maxBatch, dim int) (*tensor.Tensor, bool, error) {
	payload, err := binio.DecodeFrame(body)
	if err != nil {
		return nil, false, fmt.Errorf("decode: %w", err)
	}
	if len(payload) < binRequestHeader {
		return nil, false, fmt.Errorf("decode: %d-byte payload is shorter than the request header", len(payload))
	}
	rows := int64(binary.LittleEndian.Uint32(payload[0:4]))
	width := int64(binary.LittleEndian.Uint32(payload[4:8]))
	flags := payload[8]
	floats := payload[binRequestHeader:]
	switch {
	case rows == 0:
		return nil, false, errors.New("empty batch")
	case rows > int64(maxBatch):
		return nil, false, fmt.Errorf("batch %d exceeds limit %d", rows, maxBatch)
	case width != int64(dim):
		return nil, false, fmt.Errorf("samples have %d values, want %d", width, dim)
	case int64(len(floats)) != 8*rows*width:
		return nil, false, fmt.Errorf("decode: payload holds %d bytes of samples, its header claims %d", len(floats), 8*rows*width)
	case flags&^binFlagNoScreen != 0:
		return nil, false, fmt.Errorf("decode: unknown flag bits %#02x", flags)
	}
	x := tensor.FromSlice(rowsInto(dst, int(rows)*dim), int(rows), dim)
	if err := floatsLE(x.Data, floats, dim); err != nil {
		return nil, false, err
	}
	return x, flags&binFlagNoScreen == 0, nil
}

// predictResponseBinary is the binary path of parsePredictResponse. A body
// that is not one whole, CRC-clean, self-consistent frame is malformed; a
// clean frame announcing the wrong shape is the endpoint's mistake and is not.
func predictResponseBinary(dst []float64, body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, malformed bool, err error) {
	payload, err := binio.DecodeFrame(body)
	if err != nil {
		return nil, nil, true, fmt.Errorf("decode response: %w", err)
	}
	if len(payload) < binResponseHeader {
		return nil, nil, true, fmt.Errorf("decode response: %d-byte payload is shorter than the response header", len(payload))
	}
	rows := int64(binary.LittleEndian.Uint32(payload[0:4]))
	width := int64(binary.LittleEndian.Uint32(payload[4:8]))
	switch {
	case rows != int64(n):
		return nil, nil, false, fmt.Errorf("endpoint returned %d rows for %d inputs", rows, n)
	case width != int64(classes):
		return nil, nil, false, fmt.Errorf("rows have %d classes, want %d", width, classes)
	}
	rest := payload[binResponseHeader:]
	if len(rest) < 8*n*classes+4 {
		return nil, nil, true, fmt.Errorf("decode response: payload holds %d bytes after its header, %d rows of %d classes need more", len(rest), n, classes)
	}
	floats, block := rest[:8*n*classes], rest[8*n*classes+4:]
	if claimed := binary.LittleEndian.Uint32(rest[len(floats):]); int64(claimed) != int64(len(block)) {
		return nil, nil, true, fmt.Errorf("decode response: screening block of %d bytes, its length word claims %d", len(block), claimed)
	}
	if len(block) > 0 {
		// A local, so that only replies that carry a block pay for the
		// pointer Unmarshal takes.
		var entries []Screening
		if err := json.Unmarshal(block, &entries); err != nil {
			return nil, nil, true, fmt.Errorf("decode response: screening block: %w", err)
		}
		if len(entries) != 0 && len(entries) != n {
			return nil, nil, false, fmt.Errorf("endpoint returned %d screening entries for %d inputs", len(entries), n)
		}
		if len(entries) > 0 {
			screening = entries
		}
	}
	out = tensor.FromSlice(rowsInto(dst, n*classes), n, classes)
	if err := floatsLE(out.Data, floats, classes); err != nil {
		return nil, nil, false, fmt.Errorf("endpoint returned a %w", err)
	}
	return out, screening, false, nil
}
