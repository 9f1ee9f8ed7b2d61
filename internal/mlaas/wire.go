package mlaas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"bprom/internal/binio"
	"bprom/internal/tensor"
)

// The predict codec. Two messages carry every hot byte of the service —
//
//	{"inputs":[[f,…],…],"screen":false}            (request; "screen" optional)
//	{"confidences":[[f,…],…],"screening":[{…},…]}  (response; "screening" optional)
//
// — and this file moves them between []byte and flat tensor data.
//
// Their JSON spelling is encoding/json's in both directions: json.Encoder over
// predictRequest / predictResponse, whose rows are views of the flat data, and
// json.Unmarshal into the same structs, followed by the shape checks that word
// every 400. The one thing added is a non-finite check before encoding, so
// that NaN or ±Inf is the same error in both spellings.
//
// Both messages have a second spelling, ContentTypeBinaryPredict (wire_bin.go):
// the same values as float64 bit patterns inside one CRC frame. It is what
// this package's own Client and Server speak to each other, and the only fast
// path. The four entry points below — appendPredictRequest /
// parsePredictRequest on the way in, appendPredictResponse /
// parsePredictResponse on the way out — take the content type and are the
// only place that tells the spellings apart; JSON is the reference spelling
// and what every unrecognised content type means.

// contentTypeJSON is the Content-Type of every JSON body the service writes.
const contentTypeJSON = "application/json"

// predictContentType names the spelling of a predict body from its
// Content-Type header: the binary frame when the header is exactly
// ContentTypeBinaryPredict, JSON for anything else — no header, curl's
// default, a charset parameter — as before there was a second spelling.
func predictContentType(header string) string {
	if header == ContentTypeBinaryPredict {
		return ContentTypeBinaryPredict
	}
	return contentTypeJSON
}

// predictBodyLimit is the request-body cap of a predict route: the exact
// size of a full binary batch, or for JSON at most ~25 bytes per number.
func predictBodyLimit(contentType string, maxBatch, dim int) int64 {
	if contentType == ContentTypeBinaryPredict {
		return binaryRequestSize(maxBatch, dim)
	}
	return int64(maxBatch*dim*25 + 1024)
}

// screeningEntryBytes bounds one row's entry in a reply's screening block.
// This package's server writes under 200 bytes per entry, rejection message
// included; the rest is room for another endpoint's wording.
const screeningEntryBytes = 512

// predictReplyLimit is the most a client reads of a reply to n rows of
// classes confidences: what n rows can legally take in contentType's spelling,
// screening block included. A node that answers with more is broken, not
// verbose.
func predictReplyLimit(contentType string, n, classes int) int64 {
	block := int64(n) * screeningEntryBytes
	if contentType == ContentTypeBinaryPredict {
		return binio.FrameHeaderSize + binResponseHeader + 8*int64(n)*int64(classes) + 4 + block
	}
	return int64(n)*int64(classes)*25 + block + 1024
}

// wireBufPool holds the byte scratch of the predict hot path: request and
// response bodies on the node, the gateway and the client. A buffer goes back
// once nothing can read it any more. For a node's bodies and a client's reply
// that is when the handler or the attempt returns; a client's request body is
// a requestPayload, which net/http may still be writing after the attempt has
// returned, so it goes back when the transport closes the last body over it.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// rowPool holds the float storage of handlePredict: the request rows it
// decodes (up to max_batch × input_dim values) and the confidence rows the
// provider answers into. A handler returns its predictRows only after
// prov.predict has returned success, when every reader of the rows and
// writer of the confidences — engine worker, screener, a gateway's node
// client — is done with them, and after the reply is encoded. On any error
// return, a cancelled context or errEngineClosed above all, a predictJob still
// in the engine's queue may read the one and write the other later, so both
// are left to the GC.
var rowPool = sync.Pool{New: func() any { return new(predictRows) }}

// predictRows is one handled predict's storage: request rows in, confidence
// rows out. Keeping them paired keeps each slice at its own size, so a Get
// never hands back confidence storage where request rows are wanted.
type predictRows struct{ in, out []float64 }

// rowsInto returns len-n storage for decoded rows: dst's own when its
// capacity allows, else fresh. Every value is overwritten by the caller.
func rowsInto(dst []float64, n int) []float64 {
	return slices.Grow(dst[:0], n)[:n]
}

// readBody reads r to EOF into buf's storage (always to EOF: a body left
// half-read costs the HTTP connection). sizeHint, when positive, presizes
// the buffer so a body of that length is read without growing; callers bound
// it, since it comes from a Content-Length header.
func readBody(buf []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	// One spare byte lets the final Read report EOF without a growth step.
	buf = slices.Grow(buf[:0], int(max(sizeHint, 0))+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readCapped reads a body of at most limit bytes; one byte more comes back
// when the body is larger, which is how the caller tells. contentLength
// presizes the read only when it is within the limit, so a header cannot make
// the reader allocate more than a legal body would.
func readCapped(buf []byte, body io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		contentLength = 0
	}
	return readBody(buf, io.LimitReader(body, limit+1), contentLength)
}

// --- Encoding ----------------------------------------------------------------------

// appendPredictRequest appends the predict request for inputs (flat
// row-major rows of dim values) in contentType's spelling: one binary frame,
// or json.Encoder's output for a predictRequest, trailing newline included.
// optOut adds "screen":false.
func appendPredictRequest(dst []byte, contentType string, inputs []float64, dim int, optOut bool) ([]byte, error) {
	if contentType == ContentTypeBinaryPredict {
		return appendPredictRequestBinary(dst, inputs, dim, optOut)
	}
	rows, err := jsonRows(inputs, dim, nil)
	if err != nil {
		return dst, err
	}
	req := predictRequest{Inputs: rows}
	if optOut {
		req.Screen = new(bool)
	}
	return appendJSON(dst, &req)
}

// appendPredictResponse appends the predict response for probs (flat
// row-major rows of classes values) in contentType's spelling: one binary
// frame, or json.Encoder's output for a predictResponse, trailing newline
// included. screening, when non-empty, holds one entry per row; Rejected rows
// go out as null (JSON) or as zeros (binary).
func appendPredictResponse(dst []byte, contentType string, probs []float64, classes int, screening []Screening) ([]byte, error) {
	if contentType == ContentTypeBinaryPredict {
		return appendPredictResponseBinary(dst, probs, classes, screening)
	}
	rows, err := jsonRows(probs, classes, screening)
	if err != nil {
		return dst, err
	}
	return appendJSON(dst, &predictResponse{Confidences: rows, Screening: screening})
}

// jsonRows views data as rows of width values for encoding/json. A row whose
// screening entry is Rejected is left nil, which encodes as null (screening
// may be nil). JSON has no spelling for NaN or ±Inf, and encoding/json's own
// refusal names no row or column: the first one met outside a withheld row is
// an error here instead.
func jsonRows(data []float64, width int, screening []Screening) ([][]float64, error) {
	rows := make([][]float64, len(data)/width)
	for i := range rows {
		if screening != nil && screening[i].Rejected {
			continue
		}
		row := data[i*width : (i+1)*width]
		for j, f := range row {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("non-finite value %v (row %d, column %d)", f, i, j)
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// appendJSON appends json.Encoder's output for v to dst.
func appendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// --- Decoding ----------------------------------------------------------------------

// parsePredictRequest decodes a predict request body in contentType's
// spelling into an [n, dim] tensor over dst's storage (fresh storage when dst
// is too small; nil always allocates) and the effective screen flag (absent
// means true), enforcing 1 ≤ n ≤ maxBatch and the row width. Any error is the
// 400 message.
func parsePredictRequest(dst []float64, contentType string, body []byte, maxBatch, dim int) (*tensor.Tensor, bool, error) {
	if contentType == ContentTypeBinaryPredict {
		return predictRequestBinary(dst, body, maxBatch, dim)
	}
	return predictRequestJSON(dst, body, maxBatch, dim)
}

// predictRequestJSON is the JSON path of parsePredictRequest: encoding/json
// decides what parses, and the shape checks after it word every other 400.
func predictRequestJSON(dst []float64, body []byte, maxBatch, dim int) (*tensor.Tensor, bool, error) {
	var req predictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, fmt.Errorf("decode: %w", err)
	}
	n := len(req.Inputs)
	if n == 0 {
		return nil, false, errors.New("empty batch")
	}
	if n > maxBatch {
		return nil, false, fmt.Errorf("batch %d exceeds limit %d", n, maxBatch)
	}
	x := tensor.FromSlice(rowsInto(dst, n*dim), n, dim)
	for i, row := range req.Inputs {
		if len(row) != dim {
			return nil, false, fmt.Errorf("sample %d has %d values, want %d", i, len(row), dim)
		}
		copy(x.Data[i*dim:(i+1)*dim], row)
	}
	return x, req.Screen == nil || *req.Screen, nil
}

// parsePredictResponse decodes a predict response body in contentType's
// spelling, expected to hold n rows of classes confidences, into an [n,
// classes] tensor over dst's storage (as parsePredictRequest's) plus the
// screening block, if one came. malformed marks an error as "this is not a
// predict response at all" — a broken, truncated or bit-flipped reply, worth
// a retry — as opposed to a well-formed reply of the wrong shape. A malformed
// reply leaves dst untouched.
func parsePredictResponse(dst []float64, contentType string, body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, malformed bool, err error) {
	if contentType == ContentTypeBinaryPredict {
		return predictResponseBinary(dst, body, n, classes)
	}
	return predictResponseJSON(dst, body, n, classes)
}

// predictResponseJSON is the JSON path of parsePredictResponse.
func predictResponseJSON(dst []float64, body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, malformed bool, err error) {
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, nil, true, fmt.Errorf("decode response: %w", err)
	}
	if len(pr.Confidences) != n {
		return nil, nil, false, fmt.Errorf("endpoint returned %d rows for %d inputs", len(pr.Confidences), n)
	}
	if len(pr.Screening) > 0 {
		if len(pr.Screening) != n {
			return nil, nil, false, fmt.Errorf("endpoint returned %d screening entries for %d inputs", len(pr.Screening), n)
		}
		screening = pr.Screening
	}
	out = tensor.FromSlice(rowsInto(dst, n*classes), n, classes)
	for i, row := range pr.Confidences {
		if len(row) == 0 && screening != nil && screening[i].Rejected {
			clear(out.Data[i*classes : (i+1)*classes]) // withheld by the reject policy: confidences are zero
			continue
		}
		if len(row) != classes {
			return nil, nil, false, fmt.Errorf("row %d has %d classes, want %d", i, len(row), classes)
		}
		copy(out.Data[i*classes:(i+1)*classes], row)
	}
	return out, screening, false, nil
}
