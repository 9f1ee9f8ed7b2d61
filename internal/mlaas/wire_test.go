package mlaas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
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

// jsonRequest is the reference encoding of a predict request: json.Encoder
// over the predictRequest struct, exactly what the client used to send.
func jsonRequest(t testing.TB, x *tensor.Tensor, optOut bool) []byte {
	t.Helper()
	req := predictRequest{Inputs: make([][]float64, x.Dim(0))}
	for i := range req.Inputs {
		req.Inputs[i] = x.Row(i)
	}
	if optOut {
		req.Screen = new(bool)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonResponse is the reference encoding of a predict response: json.Encoder
// over the predictResponse struct, rejected rows nil, exactly what the
// handler used to send.
func jsonResponse(t testing.TB, probs *tensor.Tensor, screening []Screening) []byte {
	t.Helper()
	resp := predictResponse{Confidences: make([][]float64, probs.Dim(0)), Screening: screening}
	for i := range resp.Confidences {
		if screening == nil || !screening[i].Rejected {
			resp.Confidences[i] = probs.Row(i)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

// The encoders must write what json.Encoder wrote for the old structs, byte
// for byte, and the tokenizer must take those bytes (not decline them) and
// return every value bit for bit.
func TestPredictWireEncodersMatchEncodingJSON(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		x := wireFloats(seed, 7, 33)
		for _, optOut := range []bool{false, true} {
			got, err := appendPredictRequest(nil, contentTypeJSON, x.Data, x.Dim(1), optOut)
			if err != nil {
				t.Fatal(err)
			}
			if want := jsonRequest(t, x, optOut); !bytes.Equal(got, want) {
				t.Fatalf("seed %d optOut=%v: request bytes differ\n got %s\nwant %s", seed, optOut, got, want)
			}
			back, screen, ok := predictRequestFast(got, 7, 33)
			if !ok {
				t.Fatalf("seed %d: tokenizer declined the canonical request", seed)
			}
			if screen == optOut {
				t.Fatalf("optOut=%v decoded as screen=%v", optOut, screen)
			}
			sameBits(t, "request round trip", back, x)
		}

		probs := wireFloats(seed+100, 5, 10)
		annotated := make([]Screening, 5)
		rejected := make([]Screening, 5)
		for i := range annotated {
			annotated[i] = Screening{Score: 0.25 * float64(i), Flagged: i%2 == 1, Threshold: 0.5}
			rejected[i] = annotated[i]
			if i%2 == 1 {
				rejected[i].Rejected = true
				// json.Encoder HTML-escapes <, > and &; so must the new path.
				rejected[i].Error = fmt.Sprintf("input <flagged> & withheld (score %.3f >= threshold %.3f)", annotated[i].Score, 0.5)
			}
		}
		for name, screening := range map[string][]Screening{"plain": nil, "annotated": annotated, "rejected": rejected} {
			got, err := appendPredictResponse(nil, contentTypeJSON, probs.Data, probs.Dim(1), screening)
			if err != nil {
				t.Fatal(err)
			}
			if want := jsonResponse(t, probs, screening); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: response bytes differ\n got %s\nwant %s", seed, name, got, want)
			}
			back, scr, ok := predictResponseFast(got, 5, 10)
			if name == "rejected" {
				// null rows are the encoding/json path's: the tokenizer must
				// decline, and the full parse must zero exactly those rows.
				if ok {
					t.Fatal("tokenizer accepted a response with null rows")
				}
				var malformed bool
				back, scr, malformed, err = parsePredictResponse(contentTypeJSON, got, 5, 10)
				if err != nil || malformed {
					t.Fatalf("rejected response: malformed=%v err=%v", malformed, err)
				}
				want := probs.Clone()
				for i := range rejected {
					if rejected[i].Rejected {
						clear(want.Row(i))
					}
				}
				sameBits(t, "rejected response", back, want)
			} else {
				if !ok {
					t.Fatalf("seed %d %s: tokenizer declined the canonical response", seed, name)
				}
				sameBits(t, name+" response round trip", back, probs)
			}
			if !reflect.DeepEqual(scr, screening) {
				t.Fatalf("%s: screening %+v, want %+v", name, scr, screening)
			}
		}
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

// checkWireAgainstJSON is the fuzz property: whatever the tokenizers accept,
// encoding/json plus the handler's/client's validation accepts too, with the
// same row count, the same float bits, the same screen flag and the same
// screening block. (What the tokenizers decline is encoding/json's anyway.)
func checkWireAgainstJSON(t *testing.T, body []byte) {
	if x, screen, ok := predictRequestFast(body, fuzzMaxBatch, fuzzWidth); ok {
		jx, jscreen, err := predictRequestJSON(body, fuzzMaxBatch, fuzzWidth)
		if err != nil {
			t.Fatalf("tokenizer accepted a request encoding/json rejects (%v): %q", err, body)
		}
		if screen != jscreen {
			t.Fatalf("screen %v, encoding/json %v: %q", screen, jscreen, body)
		}
		sameBits(t, fmt.Sprintf("request %q", body), x, jx)
	}
	for n := 1; n <= 3; n++ {
		out, scr, ok := predictResponseFast(body, n, fuzzWidth)
		if !ok {
			continue
		}
		jout, jscr, _, err := predictResponseJSON(body, n, fuzzWidth)
		if err != nil {
			t.Fatalf("tokenizer accepted a response encoding/json rejects (%v): %q", err, body)
		}
		sameBits(t, fmt.Sprintf("response %q", body), out, jout)
		if !reflect.DeepEqual(scr, jscr) {
			t.Fatalf("screening %+v, encoding/json %+v: %q", scr, jscr, body)
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

func TestPredictWireSeeds(t *testing.T) {
	for _, s := range wireSeeds() {
		checkWireAgainstJSON(t, []byte(s))
	}
	// The property says nothing about what is declined, so pin the verdicts
	// the design rests on: canonical spellings are taken, the rest are not.
	for body, want := range map[string]bool{
		`{"inputs":[[0,1,2]]}`: true,
		" {\n\"inputs\" : [ [ -0 , 1e-7 , 1E+2 ] ] , \"screen\" : true } ": true,
		`{"screen":false,"inputs":[[0,1,2]]}`:                              false,
		`{"inputs":[[0,1,2]],"extra":1}`:                                   false,
		`{"inputs":[[0,1,2]],"screen":null}`:                               false,
		`{"inputs":[[0,1]]}`:                                               false,
		`{"inputs":[[0,1,2],[0,1,2],[0,1,2],[0,1,2],[0,1,2]]}`:             false,
		`{"inputs":[[0,1,+2]]}`:                                            false,
		`{"inputs":[[0,1,02]]}`:                                            false,
		`{"inputs":[[0,1,.2]]}`:                                            false,
		`{"inputs":[[0,1,2.]]}`:                                            false,
		`{"inputs":[[0,1,Inf]]}`:                                           false,
		`{"inputs":[[0,1,0x1p3]]}`:                                         false,
		`{"inputs":[[0,1,1_0]]}`:                                           false,
		`{"inputs":[[0,1,1e999]]}`:                                         false,
		`{"inputs":[[0,1,2]]} x`:                                           false,
	} {
		if _, _, ok := predictRequestFast([]byte(body), fuzzMaxBatch, fuzzWidth); ok != want {
			t.Errorf("tokenizer took=%v, want %v: %s", ok, want, body)
		}
	}
}

// FuzzPredictWire: for arbitrary bytes the tokenizers either decline or
// return exactly what encoding/json plus today's validation returns.
func FuzzPredictWire(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkWireAgainstJSON(t, body) })
}

// Decode + encode of both messages allocates the two result tensors and
// nothing else, however many rows go through — in either spelling.
func TestPredictWireAllocsIndependentOfRows(t *testing.T) {
	measure := func(ct string, rows int) (codec, tensors float64) {
		x, probs := wireMessage(rows)
		req, _ := appendPredictRequest(nil, ct, x.Data, wireCols, true)
		resp, _ := appendPredictResponse(nil, ct, probs.Data, wireClasses, nil)
		scratch := make([]byte, 0, 2*len(req))
		codec = testing.AllocsPerRun(20, func() {
			if ct == contentTypeJSON {
				// The tokenizer itself, not the encoding/json path behind it.
				if _, _, ok := predictRequestFast(req, rows, wireCols); !ok {
					t.Fatal("request declined")
				}
				if _, _, ok := predictResponseFast(resp, rows, wireClasses); !ok {
					t.Fatal("response declined")
				}
			} else {
				if _, _, err := parsePredictRequest(ct, req, rows, wireCols); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := parsePredictResponse(ct, resp, rows, wireClasses); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := appendPredictRequest(scratch[:0], ct, x.Data, wireCols, true); err != nil {
				t.Fatal(err)
			}
			if _, err := appendPredictResponse(scratch[:0], ct, probs.Data, wireClasses, nil); err != nil {
				t.Fatal(err)
			}
		})
		tensors = testing.AllocsPerRun(20, func() {
			wireSink += tensor.New(rows, wireCols).Len() + tensor.New(rows, wireClasses).Len()
		})
		return codec, tensors
	}
	for _, ct := range wireCodecs {
		for _, rows := range []int{wireNarrow, wireWide} {
			if codec, tensors := measure(ct, rows); codec != tensors {
				t.Errorf("%s, %d rows: decode+encode makes %v allocations, its two tensors account for %v", ct, rows, codec, tensors)
			}
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
	body := string(jsonRequest(t, x, false))
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

// Bodies the tokenizer declines are still served, with the same tensor —
// hence the same response bytes — as their canonical spelling; and the 400s
// keep their wording.
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

func (p *nanProvider) Predict(_ context.Context, _ string, x *tensor.Tensor, _ bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	out := tensor.New(x.Dim(0), p.info.Classes)
	out.Fill(0.25)
	out.Data[1] = p.bad
	return out, nil, nil
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

// benchDecode times the server's decode of a request plus the client's
// decode of the matching response: "wire" through parsePredict* on JSON,
// "json" through the encoding/json path alone (what every request took
// before the tokenizer), "bin" through parsePredict* on the binary frame.
func benchDecode(b *testing.B, rows int) {
	x, probs := wireMessage(rows)
	run := func(name, ct string, viaEncodingJSON bool) {
		req, _ := appendPredictRequest(nil, ct, x.Data, wireCols, true)
		resp, _ := appendPredictResponse(nil, ct, probs.Data, wireClasses, nil)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(req) + len(resp)))
			b.ReportAllocs()
			for b.Loop() {
				var in, out *tensor.Tensor
				var err1, err2 error
				if viaEncodingJSON {
					in, _, err1 = predictRequestJSON(req, rows, wireCols)
					out, _, _, err2 = predictResponseJSON(resp, rows, wireClasses)
				} else {
					in, _, err1 = parsePredictRequest(ct, req, rows, wireCols)
					out, _, _, err2 = parsePredictResponse(ct, resp, rows, wireClasses)
				}
				if err1 != nil || err2 != nil {
					b.Fatal(err1, err2)
				}
				wireSink += in.Len() + out.Len()
			}
		})
	}
	run("wire", contentTypeJSON, false)
	run("json", contentTypeJSON, true)
	run("bin", ContentTypeBinaryPredict, false)
}

// benchEncode times the client's encode of a request plus the server's
// encode of the matching response into warm buffers: "wire" and "bin" through
// the append encoders in the JSON and the binary spelling, "json" through
// json.Encoder over the old structs.
func benchEncode(b *testing.B, rows int) {
	x, probs := wireMessage(rows)
	for _, leg := range [][2]string{{"wire", contentTypeJSON}, {"bin", ContentTypeBinaryPredict}} {
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
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		req := predictRequest{Inputs: make([][]float64, rows), Screen: new(bool)}
		resp := predictResponse{Confidences: make([][]float64, rows)}
		b.SetBytes(int64(len(jsonRequest(b, x, true)) + len(jsonResponse(b, probs, nil))))
		b.ReportAllocs()
		for b.Loop() {
			for i := range rows {
				req.Inputs[i], resp.Confidences[i] = x.Row(i), probs.Row(i)
			}
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&req); err != nil {
				b.Fatal(err)
			}
			wireSink += buf.Len()
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				b.Fatal(err)
			}
			wireSink += buf.Len()
		}
	})
}

func BenchmarkPredictWireDecodeNarrow(b *testing.B) { benchDecode(b, wireNarrow) }
func BenchmarkPredictWireDecodeWide(b *testing.B)   { benchDecode(b, wireWide) }
func BenchmarkPredictWireEncodeNarrow(b *testing.B) { benchEncode(b, wireNarrow) }
func BenchmarkPredictWireEncodeWide(b *testing.B)   { benchEncode(b, wireWide) }
