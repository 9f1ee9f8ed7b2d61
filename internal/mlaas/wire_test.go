package mlaas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// wireFloats fills an [n, width] tensor with finite float64s drawn from
// random bit patterns — every exponent, both signs, subnormals — salted
// with the values where encoding/json changes format or spelling.
func wireFloats(seed uint64, n, width int) *tensor.Tensor {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21,
		1e-7, 1e-9, 1.5e-9, 1e-10, 2.5e-10, 1e-100, 1e100, 1e22, 123456789, 1 << 53,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	r := rand.New(rand.NewPCG(seed, 0x77697265))
	x := tensor.New(n, width)
	for i := range x.Data {
		if i < len(edges) {
			x.Data[i] = edges[i]
			continue
		}
		f := math.Float64frombits(r.Uint64())
		for math.IsNaN(f) || math.IsInf(f, 0) {
			f = math.Float64frombits(r.Uint64())
		}
		x.Data[i] = f
	}
	return x
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !reflect.DeepEqual(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: value %d is %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// The JSON spelling is pinned byte for byte: key order, float format on both
// sides of encoding/json's switch to exponents, -0, the opt-out flag, null for
// a withheld row, HTML escaping in the screening block and the trailing
// newline. Foreign callers see exactly these bytes for these values.
func TestPredictJSONSpelling(t *testing.T) {
	req, err := appendPredictRequest(nil, contentTypeJSON,
		[]float64{0, math.Copysign(0, -1), 1e-7, 1.5e-9, 1e21, 123456789, 0.1, 5e-324}, 4, true)
	if want := `{"inputs":[[0,-0,1e-7,1.5e-9],[1e+21,123456789,0.1,5e-324]],"screen":false}` + "\n"; err != nil || string(req) != want {
		t.Errorf("request (%v)\n got %s\nwant %s", err, req, want)
	}
	req, err = appendPredictRequest(nil, contentTypeJSON, []float64{0.25, 1.0 / 3}, 2, false)
	if want := `{"inputs":[[0.25,0.3333333333333333]]}` + "\n"; err != nil || string(req) != want {
		t.Errorf("request (%v)\n got %s\nwant %s", err, req, want)
	}
	resp, err := appendPredictResponse(nil, contentTypeJSON, []float64{-1e-10, 1e20}, 2, nil)
	if want := `{"confidences":[[-1e-10,100000000000000000000]]}` + "\n"; err != nil || string(resp) != want {
		t.Errorf("response (%v)\n got %s\nwant %s", err, resp, want)
	}
	screening := []Screening{
		{Score: 0.25, Threshold: 0.5},
		{Score: 0.75, Flagged: true, Threshold: 0.5, Rejected: true, Error: "input <flagged> & withheld"},
	}
	resp, err = appendPredictResponse(nil, contentTypeJSON, []float64{0.5, 1e-6, math.NaN(), 2}, 2, screening)
	want := `{"confidences":[[0.5,0.000001],null],"screening":[{"score":0.25,"flagged":false,"threshold":0.5},` +
		`{"score":0.75,"flagged":true,"threshold":0.5,"rejected":true,"error":"input \u003cflagged\u003e \u0026 withheld"}]}` + "\n"
	if err != nil || string(resp) != want {
		t.Errorf("screened response (%v)\n got %s\nwant %s", err, resp, want)
	}
	// The encoders append: what dst already holds is kept.
	if got, _ := appendPredictRequest([]byte("x"), contentTypeJSON, []float64{1}, 1, false); string(got) != "x{\"inputs\":[[1]]}\n" {
		t.Errorf("append to a non-empty dst: %q", got)
	}
}

func TestPredictWireEncodersRefuseNonFinite(t *testing.T) {
	for _, ct := range wireCodecs {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := tensor.New(2, 3)
			x.Data[4] = bad
			if _, err := appendPredictRequest(nil, ct, x.Data, 3, false); err == nil || !strings.Contains(err.Error(), "row 1, column 1") {
				t.Fatalf("%s request with %v: err %v", ct, bad, err)
			}
			if _, err := appendPredictResponse(nil, ct, x.Data, 3, nil); err == nil {
				t.Fatalf("%s response with %v encoded", ct, bad)
			}
		}
		// A withheld row is never formatted, so what it holds cannot matter.
		x := tensor.New(1, 2)
		x.Data[0] = math.NaN()
		if _, err := appendPredictResponse(nil, ct, x.Data, 2, []Screening{{Rejected: true}}); err != nil {
			t.Fatalf("%s: rejected row was inspected: %v", ct, err)
		}
	}
}

// Fuzz geometry: requests are judged against max_batch 4 × 3 inputs,
// responses against 1–3 expected rows × 3 classes.
const (
	fuzzMaxBatch = 4
	fuzzWidth    = 3
)

// checkJSONDecoders is the fuzz property of the JSON decoder pair, as
// checkBinaryDecoders is of the binary one: an accepted request is within the
// limits it was judged against and survives encode → decode with the same
// float bits and screen flag; an accepted response does the same with its
// screening block, a withheld row coming back as zeros.
func checkJSONDecoders(t *testing.T, body []byte) {
	if x, screen, err := parsePredictRequest(nil, contentTypeJSON, body, fuzzMaxBatch, fuzzWidth); err == nil {
		if x.Dim(0) < 1 || x.Dim(0) > fuzzMaxBatch || x.Dim(1) != fuzzWidth {
			t.Fatalf("accepted a request of shape %v: %q", x.Shape(), body)
		}
		again, err := appendPredictRequest(nil, contentTypeJSON, x.Data, fuzzWidth, !screen)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v: %q", err, body)
		}
		x2, screen2, err := parsePredictRequest(nil, contentTypeJSON, again, fuzzMaxBatch, fuzzWidth)
		if err != nil || screen2 != screen {
			t.Fatalf("re-encoded request %q: screen %v, want %v (%v)", again, screen2, screen, err)
		}
		sameBits(t, fmt.Sprintf("request %q", body), x2, x)
	} else if x != nil {
		t.Fatalf("refused request came with a tensor: %q", body)
	}
	for n := 1; n <= 3; n++ {
		out, scr, _, err := parsePredictResponse(nil, contentTypeJSON, body, n, fuzzWidth)
		if err != nil {
			if out != nil {
				t.Fatalf("refused response came with a tensor: %q", body)
			}
			continue
		}
		if scr != nil && len(scr) != n {
			t.Fatalf("accepted %d screening entries for %d rows: %q", len(scr), n, body)
		}
		again, err := appendPredictResponse(nil, contentTypeJSON, out.Data, fuzzWidth, scr)
		if err != nil {
			t.Fatalf("accepted response does not re-encode: %v: %q", err, body)
		}
		out2, scr2, malformed, err := parsePredictResponse(nil, contentTypeJSON, again, n, fuzzWidth)
		if err != nil || malformed {
			t.Fatalf("re-encoded response %q refused (malformed=%v): %v", again, malformed, err)
		}
		for i := range scr {
			if scr[i].Rejected {
				clear(out.Row(i))
			}
		}
		sameBits(t, fmt.Sprintf("response %q", body), out2, out)
		if !reflect.DeepEqual(scr2, scr) {
			t.Fatalf("re-encoded screening %+v, want %+v", scr2, scr)
		}
	}
}

// wireSeeds are the hand-picked inputs: every number spelling worth an
// argument, in both messages, plus the structural deviations.
func wireSeeds() []string {
	var seeds []string
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0e-0", "1", "0.1", "1e-7", "1E-7", "1e+5", "1e21", "5e-324", "2.5e-324",
		"1e999", "-1e999", "1e-999", "0.30000000000000004", "123456789012345678901234567890",
		"Inf", "-Inf", "+Inf", "NaN", "nan", "infinity", "0x1p3", "0x10", "+1", "01", "-01", ".5", "1.", "1.e3",
		"1_0", "1e", "1e+", "-", "--1", "1-", "1e1.5", `"1"`, "true", "null", "[1]", "{}", "",
	} {
		seeds = append(seeds,
			`{"inputs":[[`+tok+`,1,2]]}`,
			`{"inputs":[[0,1,2],[3,4,`+tok+`]],"screen":false}`,
			`{"confidences":[[`+tok+`,1,2]]}`,
			`{"confidences":[[0,1,2],[3,`+tok+`,5]],"screening":[{"score":0.1,"flagged":false,"threshold":0.5},{"score":0.9,"flagged":true,"threshold":0.5}]}`,
		)
	}
	row := "[0.25,0.5,0.75]"
	rows := func(n int) string { return strings.TrimSuffix(strings.Repeat(row+",", n), ",") }
	return append(seeds,
		// canonical, with and without whitespace
		`{"inputs":[`+rows(1)+`]}`+"\n",
		`{"inputs":[`+rows(fuzzMaxBatch)+`],"screen":true}`,
		" {\t\"inputs\" : [ [ 0.25 , 0.5\n, 0.75 ] ] , \"screen\" : false }\r\n",
		`{"confidences":[`+rows(2)+`]}`+"\n",
		" { \"confidences\" : [ [ 1 , 2 , 3 ] ] , \"screening\" : [ { \"score\" : 1 } ] } ",
		// structure: counts, widths, depth
		`{"inputs":[]}`, `{"inputs":[[]]}`, `{"inputs":null}`, `{"inputs":[null]}`, `{}`, `[]`, `null`,
		`{"inputs":[`+rows(fuzzMaxBatch+1)+`]}`,
		`{"inputs":[[0.25,0.5]]}`, `{"inputs":[[0.25,0.5,0.75,1]]}`, `{"inputs":[`+row+`,[1,2]]}`,
		`{"inputs":[[[0.25,0.5,0.75]]]}`, `{"inputs":[[[[[[1]]]]]]}`, `{"inputs":[[0.25,[0.5],0.75]]}`,
		`{"confidences":[]}`, `{"confidences":[`+rows(4)+`]}`, `{"confidences":[[1,2]]}`, `{"confidences":[[1,2,3,4]]}`,
		// keys: order, case, unknown, duplicate
		`{"screen":false,"inputs":[`+row+`]}`, `{"Inputs":[`+row+`]}`, `{"inputs":[`+row+`],"extra":1}`,
		`{"inputs":[`+row+`],"inputs":[[1,2,3]]}`, `{"inputs":[`+row+`],"screen":false,"screen":true}`,
		`{"inputs":[`+row+`],"screen":null}`, `{"inputs":[`+row+`],"screen":0}`, `{"inputs":[`+row+`],"screen":"false"}`,
		`{"inputs":[`+row+`],"screen":falsey}`, `{"inputs":[`+row+`],"screen":tru}`,
		`{"screening":[],"confidences":[`+row+`]}`, `{"confidences":[`+row+`],"screening":[]}`,
		`{"confidences":[`+row+`],"screening":null}`, `{"confidences":[`+row+`],"screening":{}}`,
		`{"confidences":[`+row+`],"screening":[{"score":1}],"screening":[{"score":2}]}`,
		`{"confidences":[`+row+`],"screening":[{"score":1},{"score":2}]}`,
		`{"confidences":[null],"screening":[{"score":1,"flagged":true,"threshold":0.5,"rejected":true,"error":"x"}]}`,
		`{"confidences":[`+row+`],"screening":[{"score":1,"rejected":true}]}`,
		`{"confidences":[`+row+`],"screening":[{"score":1}]}}`, `{"confidences":[`+row+`],"screening":[{"score":1}]`,
		// separators and endings
		`{"inputs":[`+row+`]} x`, `{"inputs":[`+row+`]}{}`, `{"inputs":[`+row+`]`, `{"inputs":[`+row+`,]}`,
		`{"inputs":[[0.25,0.5,0.75,]]}`, `{"inputs":[[0.25 0.5 0.75]]}`, `{"inputs":[`+row+row+`]}`,
		`{"inputs":[`+row+`],}`, `{"inputs" [`+row+`]}`, `{"inputs":[`+row+"]}\x00", "{\"inputs\":[\f"+row+`]}`,
		`{"confidences":[`+row+`]} x`, `{"confidences":[`+row+`],}`,
	)
}

// FuzzPredictWire: whatever the JSON decoders accept of arbitrary bytes
// round-trips through the JSON encoders unchanged.
func FuzzPredictWire(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkJSONDecoders(t, body) })
}

// Decode of both binary messages into warm caller storage, plus their encode
// into a warm buffer, allocates the two tensor headers and nothing else,
// however many rows go through: the node decodes a request into pooled rows
// and the client a reply into its output's rows, so no allocation on the
// codec grows with the body.
func TestPredictWireAllocsIndependentOfRows(t *testing.T) {
	ct := ContentTypeBinaryPredict
	for _, rows := range []int{wireNarrow, wireWide} {
		x, probs := wireMessage(rows)
		req, _ := appendPredictRequest(nil, ct, x.Data, wireCols, true)
		resp, _ := appendPredictResponse(nil, ct, probs.Data, wireClasses, nil)
		scratch := make([]byte, 0, 2*len(req))
		in, out := make([]float64, rows*wireCols), make([]float64, rows*wireClasses)
		codec := testing.AllocsPerRun(20, func() {
			if _, _, err := parsePredictRequest(in, ct, req, rows, wireCols); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := parsePredictResponse(out, ct, resp, rows, wireClasses); err != nil {
				t.Fatal(err)
			}
			if _, err := appendPredictRequest(scratch[:0], ct, x.Data, wireCols, true); err != nil {
				t.Fatal(err)
			}
			if _, err := appendPredictResponse(scratch[:0], ct, probs.Data, wireClasses, nil); err != nil {
				t.Fatal(err)
			}
		})
		headers := testing.AllocsPerRun(20, func() {
			wireSink += tensor.FromSlice(in, rows, wireCols).Len() + tensor.FromSlice(out, rows, wireClasses).Len()
		})
		if codec != headers {
			t.Errorf("%d rows: decode+encode makes %v allocations, its two tensor headers account for %v", rows, codec, headers)
		}
	}
}

// --- Handler level -----------------------------------------------------------------

// predictDirect drives handlePredict without a socket, so the request's
// ContentLength can say anything.
func predictDirect(h http.Handler, body string, contentLength int64) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	r.ContentLength = contentLength
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestPredictHandlerBodyCapAndContentLength(t *testing.T) {
	s := NewServer(testModel(t), ServerConfig{MaxBatch: 2})
	t.Cleanup(s.Close)
	h := s.Handler()
	const limit = 2*16*25 + 1024

	x := tensor.New(2, 16)
	rng.New(3).Uniform(x.Data, 0, 1)
	req, err := appendPredictRequest(nil, contentTypeJSON, x.Data, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	body := string(req)
	want := predictDirect(h, body, int64(len(body)))
	if want.Code != 200 {
		t.Fatalf("canonical request: %d %s", want.Code, want.Body)
	}
	if cl := want.Header().Get("Content-Length"); cl != strconv.Itoa(want.Body.Len()) {
		t.Fatalf("Content-Length %q on a %d-byte predict response", cl, want.Body.Len())
	}
	// A Content-Length that lies — low, absurdly high, or absent — changes
	// neither the parse nor the answer.
	for _, cl := range []int64{5, 1 << 40, -1} {
		if got := predictDirect(h, body, cl); got.Code != 200 || got.Body.String() != want.Body.String() {
			t.Fatalf("Content-Length %d: %d %s", cl, got.Code, got.Body)
		}
	}
	// One byte over the cap is 413 whatever the header says; at the cap the
	// body is read in full and judged on its content.
	for _, cl := range []int64{limit + 1, 5, -1} {
		if got := predictDirect(h, strings.Repeat(" ", limit+1), cl); got.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body, Content-Length %d: status %d, want 413", limit+1, cl, got.Code)
		}
	}
	if got := predictDirect(h, body+strings.Repeat(" ", limit-len(body)), limit); got.Code != 200 {
		t.Fatalf("body of exactly the cap: %d %s", got.Code, got.Body)
	}

	// The header never sizes the read past the cap.
	buf, err := readCapped(nil, strings.NewReader(body), 1<<40, limit)
	if err != nil || string(buf) != body {
		t.Fatalf("readCapped: %v", err)
	}
	if cap(buf) > 2*len(body)+1024 {
		t.Fatalf("a %d-byte body under a 1 TiB Content-Length was read into %d bytes", len(body), cap(buf))
	}
	if buf, _ = readCapped(nil, strings.NewReader(body), limit, limit); cap(buf) > limit+1024 {
		t.Fatalf("an in-cap Content-Length presized %d bytes, cap is %d", cap(buf), limit)
	}
}

// Any valid JSON of the request's shape is served like the spelling the
// encoder writes, with the same tensor — hence the same response bytes —
// whatever its key order, key case, extra keys or nulls; and every 400 keeps
// its wording, down to encoding/json's for what is not a JSON number.
func TestPredictHandlerFallbackShapesAndMessages(t *testing.T) {
	s := NewServer(testModel(t), ServerConfig{MaxBatch: 2})
	t.Cleanup(s.Close)
	h := s.Handler()
	row := func(vals int) string {
		return "[" + strings.TrimSuffix(strings.Repeat("0.5,", vals), ",") + "]"
	}
	post := func(body string) *httptest.ResponseRecorder { return predictDirect(h, body, int64(len(body))) }

	want := post(`{"inputs":[` + row(16) + `]}`)
	if want.Code != 200 {
		t.Fatalf("canonical: %d %s", want.Code, want.Body)
	}
	for _, body := range []string{
		`{"screen":false,"inputs":[` + row(16) + `]}`,
		`{"inputs":[` + row(16) + `],"client":"curl"}`,
		`{"INPUTS":[` + row(16) + `]}`,
		`{"inputs":[` + strings.ReplaceAll(row(16), "0.5", "5e-1") + `],"screen":null}`,
	} {
		if got := post(body); got.Code != 200 || got.Body.String() != want.Body.String() {
			t.Errorf("fallback body %s\n got %d %s\nwant 200 %s", body, got.Code, got.Body, want.Body)
		}
	}
	for body, msg := range map[string]string{
		`{"inputs":[]}`: "empty batch",
		`{}`:            "empty batch",
		`{"inputs":[` + row(16) + `,` + row(16) + `,` + row(16) + `]}`: "batch 3 exceeds limit 2",
		`{"inputs":[` + row(16) + `,` + row(15) + `]}`:                 "sample 1 has 15 values, want 16",
		`{"inputs":[` + row(17) + `]}`:                                 "sample 0 has 17 values, want 16",
		`{"inputs":"nope"}`:                                            "decode: json: cannot unmarshal string into Go struct field predictRequest.inputs of type [][]float64",
		`{"inputs":[[` + "Inf" + `]]}`:                                 "decode: invalid character 'I' looking for beginning of value",
		`{"inputs":[[NaN]]}`:                                           "decode: invalid character 'N' looking for beginning of value",
		`{"inputs":[[0x1p3]]}`:                                         "decode: invalid character 'x' after array element",
		`{"inputs":[[+1]]}`:                                            "decode: invalid character '+' looking for beginning of value",
		`{"inputs":[[.5]]}`:                                            "decode: invalid character '.' looking for beginning of value",
		`{"inputs":[[1.]]}`:                                            "decode: invalid character ']' after decimal point in numeric literal",
		`{"inputs":[[1_0]]}`:                                           "decode: invalid character '_' after array element",
		`{"inputs":[[01]]}`:                                            "decode: invalid character '1' after array element",
		`{"inputs":[[1e999]]}`:                                         "decode: json: cannot unmarshal number 1e999 into Go struct field predictRequest.inputs of type float64",
		`{"inputs":[` + row(16) + `]} x`:                               "decode: invalid character 'x' after top-level value",
	} {
		got := post(body)
		var er errorResponse
		if err := json.Unmarshal(got.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if got.Code != 400 || er.Error != msg {
			t.Errorf("%s\n got %d %q\nwant 400 %q", body, got.Code, er.Error, msg)
		}
	}
}

// nanProvider is a single-model provider whose model has gone numerically
// wrong: every confidence row carries one non-finite value.
type nanProvider struct {
	singleProvider
	bad float64
}

func (p *nanProvider) predict(_ context.Context, _ string, _, dst *tensor.Tensor, _ bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	dst.Fill(0.25)
	dst.Data[1] = p.bad
	return dst, nil, nil
}
func (p *nanProvider) MaxBatch() int { return 8 }
func (p *nanProvider) Close()        {}

// A non-finite confidence used to be a 200 whose body stopped mid-document;
// it is a 500 with the uniform envelope, and the client reports it as such.
func TestNonFiniteConfidenceIs500(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		prov := &nanProvider{bad: bad}
		prov.info = ModelInfo{ID: DefaultModelID, Classes: 4, InputDim: 3, Loaded: true}
		srv := httptest.NewServer(newNodeServer(prov, ScreenAnnotate).Handler())
		// Asked in either spelling, the answer is the JSON envelope.
		for _, ct := range wireCodecs {
			req, _ := appendPredictRequest(nil, ct, []float64{1, 2, 3}, 3, false)
			status, gotCT, raw := postPredict(t, srv.URL+"/v1/predict", ct, req)
			var er errorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("%v in %s: body is not an error envelope: %q", bad, ct, raw)
			}
			if status != 500 || gotCT != contentTypeJSON || !strings.HasPrefix(er.Error, "model produced a non-finite confidence: non-finite value") {
				t.Fatalf("%v in %s: %d %s %q", bad, ct, status, gotCT, raw)
			}
		}
		c, err := Dial(context.Background(), srv.URL, ClientConfig{Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Predict(context.Background(), tensor.New(1, 3))
		if err == nil || !strings.Contains(err.Error(), "returned 500 (model produced a non-finite confidence") {
			t.Fatalf("%v: client error %v", bad, err)
		}
		srv.Close()
	}
}

// readCounter counts the bytes a client takes off the wire from every
// response it receives.
type readCounter struct{ read int64 }

func (c *readCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := defaultHTTPClient.Transport.RoundTrip(req)
	if err == nil {
		resp.Body = countedBody{resp.Body, &c.read}
	}
	return resp, err
}

type countedBody struct {
	io.ReadCloser
	read *int64
}

func (b countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.read += int64(n)
	return n, err
}

// A node that answers a predict with more than n rows can legally need — a
// runaway stream, something else on the port — costs the client about that
// much: it reads one byte past the cap, stops, and reports a malformed reply
// worth a retry, in either spelling.
func TestClientCapsPredictReply(t *testing.T) {
	const n, classes, dim = 4, 3, 2
	ctx := context.Background()
	for _, ct := range wireCodecs {
		limit := predictReplyLimit(ct, n, classes)
		reply := bytes.Repeat([]byte{' '}, int(limit)+1)
		// "Endless" is 16 MiB: past any bound worth asserting, short of
		// exhausting the machine should the cap ever be lost.
		for _, endless := range []bool{false, true} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					writeJSON(w, http.StatusOK, infoResponse{Classes: classes, InputDim: dim, MaxBatch: n})
					return
				}
				w.Header().Set("Content-Type", ct)
				for sent := 0; sent < 16<<20; sent += len(reply) {
					if _, err := w.Write(reply); err != nil || !endless {
						return
					}
				}
			}))
			wire := &readCounter{}
			c, err := Dial(ctx, srv.URL, ClientConfig{Timeout: 10 * time.Second, Retries: NoRetries, HTTPClient: &http.Client{Transport: wire}})
			if err != nil {
				t.Fatal(err)
			}
			payload := newRequestPayload()
			*payload.buf, _ = appendPredictRequest((*payload.buf)[:0], c.contentType, make([]float64, n*dim), dim, false)
			out := make([]float64, n*classes)
			// TotalAlloc is process-wide, the node included: take the quietest
			// of a few tries. (The pooled read buffer would hide a lost cap
			// after the first try; the byte count does not.)
			best := uint64(math.MaxUint64)
			for range 3 {
				wire.read = 0
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, retryable, _, err := c.predictOnce(ctx, payload, out)
				runtime.ReadMemStats(&after)
				if err == nil || !retryable || slices.ContainsFunc(out, func(f float64) bool { return f != 0 }) || !strings.Contains(err.Error(), fmt.Sprintf("exceeds %d bytes", limit)) {
					t.Fatalf("%s, endless=%v: retryable=%v err=%v", ct, endless, retryable, err)
				}
				if wire.read != limit+1 {
					t.Fatalf("%s, endless=%v: read %d bytes of a reply capped at %d", ct, endless, wire.read, limit)
				}
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			if best > uint64(2*limit)+256<<10 {
				t.Errorf("%s, endless=%v: a reply capped at %d bytes cost the client %d", ct, endless, limit, best)
			}
			srv.Close()
		}
	}
}

// A wide Predict holds maxInflightChunks connections at once, and the next
// one must find them all idle: under http.DefaultTransport's two idle slots
// per host, half were closed after every call and dialled again.
func TestDefaultTransportKeepsChunkConnections(t *testing.T) {
	// Connection reuse is the transport's business, not the codec's: hold it
	// on the JSON path (an endpoint that does not advertise the frame) and on
	// the binary one.
	t.Run("json", func(t *testing.T) { testChunkConnectionsAreKept(t, contentTypeJSON) })
	t.Run("binary", func(t *testing.T) { testChunkConnectionsAreKept(t, ContentTypeBinaryPredict) })
}

func testChunkConnectionsAreKept(t *testing.T, contentType string) {
	s := NewServer(testModel(t), ServerConfig{MaxBatch: 2})
	t.Cleanup(s.Close)
	// Hold each predict until all of its call's chunks have arrived, so the
	// chunks provably overlap and each owns a connection. (Left to timing, a
	// fast chunk can hand its connection to a sibling whose dial is still in
	// flight, stranding a dialled connection nobody asked for twice.)
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	h := s.Handler()
	if contentType == contentTypeJSON {
		h = withoutWire(h)
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			wait := gate
			if arrived++; arrived == maxInflightChunks {
				arrived, gate = 0, make(chan struct{})
				close(wait)
			}
			mu.Unlock()
			<-wait
		}
		h.ServeHTTP(w, r)
	}))
	var dials atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	// Other tests share the default transport; start from no idle connections
	// so the count is this test's alone.
	defaultHTTPClient.CloseIdleConnections()

	// The transport hands a connection back on its own goroutine, just after
	// the caller has read the body to EOF. Wait for that event between calls:
	// a request racing it would dial although a connection is about to be
	// free, and the count below would measure the scheduler.
	const predicts = 10
	idle := make(chan struct{}, 1+predicts*maxInflightChunks) // one send per request
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		PutIdleConn: func(error) { idle <- struct{}{} },
	})
	settle := func(requests int) {
		t.Helper()
		for range requests {
			select {
			case <-idle:
			case <-time.After(10 * time.Second):
				t.Fatal("a connection was never handed back to the transport")
			}
		}
	}

	// A chunk that never arrives would park its siblings at the gate: let the
	// request deadline, not the test binary's, end that.
	c, err := Dial(ctx, srv.URL, ClientConfig{Timeout: 10 * time.Second, Retries: NoRetries})
	if err != nil {
		t.Fatal(err)
	}
	settle(1)
	if c.contentType != contentType {
		t.Fatalf("client negotiated %q", c.contentType)
	}
	x := tensor.New(2*maxInflightChunks, 16)
	rng.New(9).Uniform(x.Data, 0, 1)
	for range predicts {
		if _, err := c.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
		settle(maxInflightChunks)
	}
	if n := dials.Load(); n > maxInflightChunks {
		t.Fatalf("%d connections dialled for %d %d-chunk predicts, want at most %d", n, predicts, maxInflightChunks, maxInflightChunks)
	}
}

// --- Micro-benchmarks ----------------------------------------------------------------

// The two message sizes of the benchmark workloads: predict_direct sends 8
// rows per request, audit_remote 128-row chunks; 432 inputs, 10 classes.
const (
	wireNarrow  = 8
	wireWide    = 128
	wireCols    = 432
	wireClasses = 10
)

func wireMessage(rows int) (x, probs *tensor.Tensor) {
	x, probs = tensor.New(rows, wireCols), tensor.New(rows, wireClasses)
	rng.New(11).Uniform(x.Data, 0, 1)
	rng.New(12).Uniform(probs.Data, 0, 1)
	return x, probs
}

var wireSink int

// wireCodecs are the two spellings of the predict messages.
var wireCodecs = []string{contentTypeJSON, ContentTypeBinaryPredict}

// wireLegs names the benchmark leg of each spelling.
var wireLegs = [][2]string{{"json", contentTypeJSON}, {"bin", ContentTypeBinaryPredict}}

// benchDecode times the server's decode of a request plus the client's
// decode of the matching response, through parsePredict* in each spelling,
// into warm storage as the node and the client decode.
func benchDecode(b *testing.B, rows int) {
	x, probs := wireMessage(rows)
	in, out := make([]float64, rows*wireCols), make([]float64, rows*wireClasses)
	for _, leg := range wireLegs {
		ct := leg[1]
		req, _ := appendPredictRequest(nil, ct, x.Data, wireCols, true)
		resp, _ := appendPredictResponse(nil, ct, probs.Data, wireClasses, nil)
		b.Run(leg[0], func(b *testing.B) {
			b.SetBytes(int64(len(req) + len(resp)))
			b.ReportAllocs()
			for b.Loop() {
				request, _, err1 := parsePredictRequest(in, ct, req, rows, wireCols)
				reply, _, _, err2 := parsePredictResponse(out, ct, resp, rows, wireClasses)
				if err1 != nil || err2 != nil {
					b.Fatal(err1, err2)
				}
				wireSink += request.Len() + reply.Len()
			}
		})
	}
}

// benchEncode times the client's encode of a request plus the server's
// encode of the matching response into warm buffers, through appendPredict*
// in each spelling.
func benchEncode(b *testing.B, rows int) {
	x, probs := wireMessage(rows)
	for _, leg := range wireLegs {
		ct := leg[1]
		b.Run(leg[0], func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				buf, _ = appendPredictRequest(buf[:0], ct, x.Data, wireCols, true)
				n := len(buf)
				buf, _ = appendPredictResponse(buf[:0], ct, probs.Data, wireClasses, nil)
				b.SetBytes(int64(n + len(buf)))
				wireSink += n + len(buf)
			}
		})
	}
}

func BenchmarkPredictWireDecodeNarrow(b *testing.B) { benchDecode(b, wireNarrow) }
func BenchmarkPredictWireDecodeWide(b *testing.B)   { benchDecode(b, wireWide) }
func BenchmarkPredictWireEncodeNarrow(b *testing.B) { benchEncode(b, wireNarrow) }
func BenchmarkPredictWireEncodeWide(b *testing.B)   { benchEncode(b, wireWide) }
