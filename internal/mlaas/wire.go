package mlaas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"bprom/internal/tensor"
)

// The predict codec. Two messages carry every hot byte of the service —
//
//	{"inputs":[[f,…],…],"screen":false}            (request; "screen" optional)
//	{"confidences":[[f,…],…],"screening":[{…},…]}  (response; "screening" optional)
//
// — and this file moves them between []byte and flat tensor data without
// encoding/json's reflection, per-row slices or byte-at-a-time scanner.
//
// The encoders are the only writers of the two messages. They format floats
// exactly as encoding/json does (strconv.AppendFloat in 'f', or 'e' outside
// [1e-6, 1e21) with the e-09 → e-9 clean-up), so every body is byte-identical
// to json.Encoder's output for predictRequest / predictResponse.
//
// The decoders are a fast path, not a second parser of record: they accept
// the canonical spelling above with arbitrary JSON whitespace and decline
// everything else — other key order, unknown or duplicate keys, nulls, wrong
// row widths, too many rows, any token outside the JSON number grammar. A
// declined body goes, unchanged, to the encoding/json path
// (predictRequestJSON / predictResponseJSON), which alone decides what is
// accepted and words every error. Numbers reach strconv.ParseFloat — the
// function encoding/json calls — only after the JSON number grammar has been
// checked, so every accepted value is bit-identical on both paths.
//
// Both messages have a second spelling, ContentTypeBinaryPredict (wire_bin.go):
// the same values as float64 bit patterns inside one CRC frame. The four entry
// points below — appendPredictRequest / parsePredictRequest on the way in,
// appendPredictResponse / parsePredictResponse on the way out — take the
// content type and are the only place that tells the spellings apart; JSON is
// the reference spelling and what every unrecognised content type means.

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

// wireBufPool holds the byte scratch of the predict hot path: request and
// response bodies on the node, the gateway and the client.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// wireFloatBytes is the presizing estimate for one encoded float64 plus its
// separator: shortest-form doubles in [0,1) run 18–20 bytes. A low guess
// costs one append growth, never correctness.
const wireFloatBytes = 20

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

// readCapped reads a request body of at most limit bytes; one byte more comes
// back when the body is larger, which is how the caller tells. contentLength
// presizes the read only when it is within the limit, so a header cannot make
// the server allocate more than a legal body would.
func readCapped(buf []byte, body io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		contentLength = 0
	}
	return readBody(buf, io.LimitReader(body, limit+1), contentLength)
}

// --- Encoding ----------------------------------------------------------------------

// appendFloat appends f as encoding/json spells a finite float64.
func appendFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// appendRows appends data as a JSON array of len(data)/width rows. A row
// whose screening entry is Rejected is withheld as null (screening may be
// nil). JSON has no spelling for NaN or ±Inf: the first one met is an error.
func appendRows(dst []byte, data []float64, width int, screening []Screening) ([]byte, error) {
	dst = append(dst, '[')
	for i := range len(data) / width {
		if i > 0 {
			dst = append(dst, ',')
		}
		if screening != nil && screening[i].Rejected {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, f := range data[i*width : (i+1)*width] {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, fmt.Errorf("non-finite value %v (row %d, column %d)", f, i, j)
			}
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// appendPredictRequest appends the predict request for inputs (flat
// row-major rows of dim values) in contentType's spelling: one binary frame,
// or the bytes json.Encoder writes for a predictRequest, trailing newline
// included. optOut adds "screen":false.
func appendPredictRequest(dst []byte, contentType string, inputs []float64, dim int, optOut bool) ([]byte, error) {
	if contentType == ContentTypeBinaryPredict {
		return appendPredictRequestBinary(dst, inputs, dim, optOut)
	}
	dst = slices.Grow(dst, len(inputs)*wireFloatBytes+64)
	dst = append(dst, `{"inputs":`...)
	dst, err := appendRows(dst, inputs, dim, nil)
	if err != nil {
		return dst, err
	}
	if optOut {
		dst = append(dst, `,"screen":false`...)
	}
	return append(dst, "}\n"...), nil
}

// appendPredictResponse appends the predict response for probs (flat
// row-major rows of classes values) in contentType's spelling: one binary
// frame, or the bytes json.Encoder writes for a predictResponse, trailing
// newline included. screening, when non-empty, holds one entry per row;
// Rejected rows go out as null (JSON) or as zeros (binary).
func appendPredictResponse(dst []byte, contentType string, probs []float64, classes int, screening []Screening) ([]byte, error) {
	if contentType == ContentTypeBinaryPredict {
		return appendPredictResponseBinary(dst, probs, classes, screening)
	}
	dst = slices.Grow(dst, len(probs)*wireFloatBytes+64)
	dst = append(dst, `{"confidences":`...)
	dst, err := appendRows(dst, probs, classes, screening)
	if err != nil {
		return dst, err
	}
	if len(screening) > 0 {
		// One small struct per row: reflection is fine here, and json.Marshal
		// HTML-escapes exactly as json.Encoder does.
		block, err := json.Marshal(screening)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"screening":`...)
		dst = append(dst, block...)
	}
	return append(dst, "}\n"...), nil
}

// --- Decoding ----------------------------------------------------------------------

// wireScanner is a cursor over one message. Every method either consumes
// what it names and reports true, or reports false — after which the caller
// declines the whole message, so the cursor's position no longer matters.
type wireScanner struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *wireScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes the byte c.
func (s *wireScanner) eat(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// eatLit skips whitespace and consumes the literal lit.
func (s *wireScanner) eatLit(lit string) bool {
	s.skip()
	if end := s.i + len(lit); end <= len(s.b) && string(s.b[s.i:end]) == lit {
		s.i = end
		return true
	}
	return false
}

// eatKey consumes `"name" :` — an object key spelled exactly (encoding/json
// also matches keys case-insensitively; such bodies take its path).
func (s *wireScanner) eatKey(quoted string) bool {
	return s.eatLit(quoted) && s.eat(':')
}

// end reports whether only whitespace remains.
func (s *wireScanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of decimal digits and reports whether there was one.
func (s *wireScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && isDigit(s.b[s.i]) {
		s.i++
	}
	return s.i > start
}

// number consumes one JSON number at the cursor (no leading whitespace):
//
//	-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// strconv.ParseFloat alone would also take "Inf", "0x1p3", "+1", ".5", "1."
// and "1_0"; the grammar is checked first so it never sees them. A leading
// zero ("01") stops after the 0, and the caller's next eat fails on the 1.
// Out-of-range magnitudes are declined like any other deviation.
func (s *wireScanner) number() (float64, bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !s.digits() {
		return 0, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// rows consumes an array of len(dst)/width arrays of exactly width numbers
// each into dst. width must be positive.
func (s *wireScanner) rows(dst []float64, width int) bool {
	if !s.eat('[') {
		return false
	}
	for off := 0; off < len(dst); off += width {
		if off > 0 && !s.eat(',') {
			return false
		}
		if !s.eat('[') {
			return false
		}
		for j := range dst[off : off+width] {
			if j > 0 && !s.eat(',') {
				return false
			}
			s.skip()
			f, ok := s.number()
			if !ok {
				return false
			}
			dst[off+j] = f
		}
		if !s.eat(']') {
			return false
		}
	}
	return s.eat(']')
}

// parsePredictRequest decodes a predict request body in contentType's
// spelling into an [n, dim] tensor and the effective screen flag (absent means
// true), enforcing 1 ≤ n ≤ maxBatch and the row width. Any error is the 400
// message.
func parsePredictRequest(contentType string, body []byte, maxBatch, dim int) (*tensor.Tensor, bool, error) {
	if contentType == ContentTypeBinaryPredict {
		return predictRequestBinary(body, maxBatch, dim)
	}
	if x, screen, ok := predictRequestFast(body, maxBatch, dim); ok {
		return x, screen, nil
	}
	return predictRequestJSON(body, maxBatch, dim)
}

// predictRequestFast is the tokenizer path of parsePredictRequest; ok=false
// declines the body.
func predictRequestFast(body []byte, maxBatch, dim int) (x *tensor.Tensor, screen, ok bool) {
	// The canonical message holds no '[' but the outer array's and one per
	// row, which sizes the tensor before a single number is parsed — and caps
	// it: a body claiming more rows than maxBatch is declined unparsed.
	n := bytes.Count(body, []byte{'['}) - 1
	if n < 1 || n > maxBatch || dim < 1 {
		return nil, false, false
	}
	s := wireScanner{b: body}
	if !s.eat('{') || !s.eatKey(`"inputs"`) {
		return nil, false, false
	}
	x = tensor.New(n, dim)
	if !s.rows(x.Data, dim) {
		return nil, false, false
	}
	screen = true
	if s.eat(',') {
		if !s.eatKey(`"screen"`) {
			return nil, false, false
		}
		if s.eatLit("false") {
			screen = false
		} else if !s.eatLit("true") {
			return nil, false, false
		}
	}
	return x, screen, s.eat('}') && s.end()
}

// predictRequestJSON is the encoding/json path: the arbiter of what a predict
// request may look like, and the author of every 400 message.
func predictRequestJSON(body []byte, maxBatch, dim int) (*tensor.Tensor, bool, error) {
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
	x := tensor.New(n, dim)
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
// classes] tensor plus the screening block, if one came. malformed marks an
// error as "this is not a predict response at all" — a broken, truncated or
// bit-flipped reply, worth a retry — as opposed to a well-formed reply of the
// wrong shape.
func parsePredictResponse(contentType string, body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, malformed bool, err error) {
	if contentType == ContentTypeBinaryPredict {
		return predictResponseBinary(body, n, classes)
	}
	if out, screening, ok := predictResponseFast(body, n, classes); ok {
		return out, screening, false, nil
	}
	return predictResponseJSON(body, n, classes)
}

// predictResponseFast is the tokenizer path of parsePredictResponse;
// ok=false declines the body. Rows withheld under the reject policy are null
// and therefore declined too — they are the encoding/json path's business.
func predictResponseFast(body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, ok bool) {
	if n < 1 || classes < 1 {
		return nil, nil, false
	}
	s := wireScanner{b: body}
	if !s.eat('{') || !s.eatKey(`"confidences"`) {
		return nil, nil, false
	}
	out = tensor.New(n, classes)
	if !s.rows(out.Data, classes) {
		return nil, nil, false
	}
	if s.eat(',') {
		if !s.eatKey(`"screening"`) {
			return nil, nil, false
		}
		// The block is small and irregular: it stays encoding/json's. What
		// follows the key must be one JSON value and the closing brace, so
		// strip the brace and let Unmarshal insist on "exactly one value".
		rest := bytes.TrimRight(s.b[s.i:], " \t\r\n")
		if len(rest) == 0 || rest[len(rest)-1] != '}' {
			return nil, nil, false
		}
		var block []Screening
		if json.Unmarshal(rest[:len(rest)-1], &block) != nil {
			return nil, nil, false
		}
		if len(block) == 0 {
			return out, nil, true
		}
		return out, block, len(block) == n
	}
	return out, nil, s.eat('}') && s.end()
}

// predictResponseJSON is the encoding/json path of parsePredictResponse.
func predictResponseJSON(body []byte, n, classes int) (out *tensor.Tensor, screening []Screening, malformed bool, err error) {
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
	out = tensor.New(n, classes)
	for i, row := range pr.Confidences {
		if len(row) == 0 && screening != nil && screening[i].Rejected {
			continue // withheld by the reject policy: confidences stay zero
		}
		if len(row) != classes {
			return nil, nil, false, fmt.Errorf("row %d has %d classes, want %d", i, len(row), classes)
		}
		copy(out.Data[i*classes:(i+1)*classes], row)
	}
	return out, screening, false, nil
}
