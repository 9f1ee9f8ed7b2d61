package mlaas

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"bprom/internal/binio"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// --- Codec level -------------------------------------------------------------------

// binFrame wraps payload in one frame, as the encoders do.
func binFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	frame, err := binio.EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// binRequestPayload spells a request payload by hand, so that a test can
// claim any row count, width and flag byte over any float section.
func binRequestPayload(rows, width uint32, flags byte, floats ...float64) []byte {
	p := binary.LittleEndian.AppendUint32(nil, rows)
	p = binary.LittleEndian.AppendUint32(p, width)
	p = append(p, flags)
	for _, f := range floats {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(f))
	}
	return p
}

// binResponsePayload is binRequestPayload for the response.
func binResponsePayload(rows, classes uint32, block string, floats ...float64) []byte {
	p := binary.LittleEndian.AppendUint32(nil, rows)
	p = binary.LittleEndian.AppendUint32(p, classes)
	for _, f := range floats {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(f))
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(block)))
	return append(p, block...)
}

// binarySeeds are the hand-picked bodies of the binary decoders, judged —
// like the JSON seeds — against max_batch 4 × 3 inputs and 3 classes.
func binarySeeds(t testing.TB) map[string][]byte {
	negZero, subnormal := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	good := binFrame(t, binRequestPayload(2, 3, 0, 0.25, 0.5, 0.75, negZero, subnormal, -math.MaxFloat64))
	badCRC := bytes.Clone(good)
	badCRC[len(badCRC)-1] ^= 0x01
	truncated := bytes.Clone(good[:len(good)-8])
	scr := `[{"score":0.9,"flagged":true,"threshold":0.5,"rejected":true,"error":"withheld"},{"score":0.1,"flagged":false,"threshold":0.5}]`
	return map[string][]byte{
		"request":               good,
		"request opt-out":       binFrame(t, binRequestPayload(1, 3, binFlagNoScreen, 1, 2, 3)),
		"request full batch":    binFrame(t, binRequestPayload(4, 3, 0, make([]float64, 12)...)),
		"claims 2^32-1 rows":    binFrame(t, binRequestPayload(math.MaxUint32, 3, 0, 1, 2, 3)),
		"claims 2^32-1 width":   binFrame(t, binRequestPayload(1, math.MaxUint32, 0, 1, 2, 3)),
		"both counts 2^32-1":    binFrame(t, binRequestPayload(math.MaxUint32, math.MaxUint32, 0)),
		"good CRC, short rows":  binFrame(t, binRequestPayload(2, 3, 0, 1, 2, 3)),
		"good CRC, long rows":   binFrame(t, binRequestPayload(1, 3, 0, 1, 2, 3, 4)),
		"good CRC, no header":   binFrame(t, []byte{1, 0, 0, 0}),
		"empty payload":         binFrame(t, nil),
		"zero rows":             binFrame(t, binRequestPayload(0, 3, 0)),
		"five rows":             binFrame(t, binRequestPayload(5, 3, 0, make([]float64, 15)...)),
		"wrong width":           binFrame(t, binRequestPayload(1, 2, 0, 1, 2)),
		"flag byte 0xFF":        binFrame(t, binRequestPayload(1, 3, 0xff, 1, 2, 3)),
		"flag byte 0x02":        binFrame(t, binRequestPayload(1, 3, 0x02, 1, 2, 3)),
		"NaN":                   binFrame(t, binRequestPayload(1, 3, 0, 1, math.NaN(), 3)),
		"+Inf":                  binFrame(t, binRequestPayload(1, 3, 0, math.Inf(1), 2, 3)),
		"-Inf":                  binFrame(t, binRequestPayload(2, 3, 0, 1, 2, 3, 4, 5, math.Inf(-1))),
		"bad CRC":               badCRC,
		"truncated frame":       truncated,
		"trailing bytes":        append(bytes.Clone(good), 0),
		"two frames":            append(bytes.Clone(good), good...),
		"header only":           good[:binio.FrameHeaderSize],
		"empty body":            {},
		"json":                  []byte(`{"inputs":[[0,1,2]]}`),
		"response":              binFrame(t, binResponsePayload(2, 3, "", 0.25, 0.5, 0.25, negZero, subnormal, 1)),
		"response screened":     binFrame(t, binResponsePayload(2, 3, scr, 0, 0, 0, 0.1, 0.2, 0.7)),
		"response leaked row":   binFrame(t, binResponsePayload(2, 3, scr, 0.3, 0.3, 0.4, 0.1, 0.2, 0.7)),
		"response empty block":  binFrame(t, binResponsePayload(1, 3, "[]", 1, 2, 3)),
		"response null block":   binFrame(t, binResponsePayload(1, 3, "null", 1, 2, 3)),
		"response short block":  binFrame(t, binResponsePayload(2, 3, `[{"score":1}]`, 1, 2, 3, 4, 5, 6)),
		"response broken block": binFrame(t, binResponsePayload(1, 3, `[{"score":`, 1, 2, 3)),
		"response NaN":          binFrame(t, binResponsePayload(1, 3, "", 1, math.NaN(), 3)),
		"response no length":    binFrame(t, binResponsePayload(1, 3, "", 1, 2, 3)[:8+24]),
		"response long length":  binFrame(t, append(binResponsePayload(1, 3, "", 1, 2, 3)[:8+24], 9, 0, 0, 0)),
		"response 2^32-1 rows":  binFrame(t, binResponsePayload(math.MaxUint32, math.MaxUint32, "")),
	}
}

// checkBinaryDecoders is the fuzz property of the binary decoder pair: no
// body panics either; an accepted request is within the limits it was judged
// against, no larger than its body, and re-encodes to the identical bytes; an
// accepted response re-encodes to a body that decodes to the same reply
// (identical bytes when it carries no screening block, whose JSON has more
// than one spelling).
func checkBinaryDecoders(t *testing.T, body []byte) {
	if x, screen, err := parsePredictRequest(nil, ContentTypeBinaryPredict, body, fuzzMaxBatch, fuzzWidth); err == nil {
		if x.Dim(0) < 1 || x.Dim(0) > fuzzMaxBatch || x.Dim(1) != fuzzWidth {
			t.Fatalf("accepted a request of shape %v: %x", x.Shape(), body)
		}
		again, err := appendPredictRequest(nil, ContentTypeBinaryPredict, x.Data, fuzzWidth, !screen)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("accepted request does not re-encode to itself (%v):\n got %x\nwant %x", err, again, body)
		}
	} else if x != nil {
		t.Fatalf("refused request came with a tensor: %x", body)
	}
	// The client knows how many rows it asked about; take the body's word so
	// that the fuzzer can reach past the first check.
	n := 1
	if len(body) >= binio.FrameHeaderSize+4 {
		n = int(binary.LittleEndian.Uint32(body[binio.FrameHeaderSize:])%8) + 1
	}
	out, scr, _, err := parsePredictResponse(nil, ContentTypeBinaryPredict, body, n, fuzzWidth)
	if err != nil {
		if out != nil {
			t.Fatalf("refused response came with a tensor: %x", body)
		}
		return
	}
	if scr != nil && len(scr) != n {
		t.Fatalf("accepted %d screening entries for %d rows: %x", len(scr), n, body)
	}
	again, err := appendPredictResponse(nil, ContentTypeBinaryPredict, out.Data, fuzzWidth, scr)
	if err != nil {
		t.Fatalf("accepted response does not re-encode: %v: %x", err, body)
	}
	// Without a block the spelling is unique; "[]" and "null" are longer.
	if scr == nil && len(again) == len(body) && !bytes.Equal(again, body) {
		t.Fatalf("accepted response does not re-encode to itself:\n got %x\nwant %x", again, body)
	}
	out2, scr2, malformed, err := parsePredictResponse(nil, ContentTypeBinaryPredict, again, n, fuzzWidth)
	if err != nil || malformed {
		t.Fatalf("re-encoded response refused (malformed=%v): %v", malformed, err)
	}
	// Re-encoding withholds what the first spelling may have leaked.
	for i := range scr {
		if scr[i].Rejected {
			clear(out.Row(i))
		}
	}
	sameBits(t, "re-encoded response", out2, out)
	if !reflect.DeepEqual(scr2, scr) {
		t.Fatalf("re-encoded screening %+v, want %+v", scr2, scr)
	}
}

func TestPredictBinarySeeds(t *testing.T) {
	seeds := binarySeeds(t)
	for _, body := range seeds {
		checkBinaryDecoders(t, body)
	}
	// Pin what each seed is refused for — the wording is the 400 message — in
	// the order the checks run: frame, header, rows, width, length, flags,
	// values.
	for name, want := range map[string]string{
		"request":              "",
		"request opt-out":      "",
		"request full batch":   "",
		"claims 2^32-1 rows":   "batch 4294967295 exceeds limit 4",
		"claims 2^32-1 width":  "samples have 4294967295 values, want 3",
		"both counts 2^32-1":   "batch 4294967295 exceeds limit 4",
		"good CRC, short rows": "decode: payload holds 24 bytes of samples, its header claims 48",
		"good CRC, long rows":  "decode: payload holds 32 bytes of samples, its header claims 24",
		"good CRC, no header":  "decode: 4-byte payload is shorter than the request header",
		"empty payload":        "decode: 0-byte payload is shorter than the request header",
		"zero rows":            "empty batch",
		"five rows":            "batch 5 exceeds limit 4",
		"wrong width":          "samples have 2 values, want 3",
		"flag byte 0xFF":       "decode: unknown flag bits 0xff",
		"flag byte 0x02":       "decode: unknown flag bits 0x02",
		"NaN":                  "non-finite value NaN (row 0, column 1)",
		"+Inf":                 "non-finite value +Inf (row 0, column 0)",
		"-Inf":                 "non-finite value -Inf (row 1, column 2)",
		"bad CRC":              "decode: binio: frame corrupt: frame has CRC",
		"truncated frame":      "decode: binio: frame corrupt: frame holds 49 payload bytes, header claims 57",
		"trailing bytes":       "decode: binio: frame corrupt: frame holds 58 payload bytes, header claims 57",
		"two frames":           "decode: binio: frame corrupt: frame holds 122 payload bytes, header claims 57",
		"header only":          "decode: binio: frame corrupt: frame holds 0 payload bytes, header claims 57",
		"empty body":           "decode: binio: frame corrupt: 0-byte frame is shorter than its header",
		"json":                 "decode: binio: frame corrupt: frame claims",
	} {
		x, screen, err := parsePredictRequest(nil, ContentTypeBinaryPredict, seeds[name], fuzzMaxBatch, fuzzWidth)
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case want == "" && screen == (name == "request opt-out"):
			t.Errorf("%s: screen=%v", name, screen)
		case want != "" && (err == nil || !strings.HasPrefix(err.Error(), want)):
			t.Errorf("%s: error %v, want %q", name, err, want)
		case want != "" && x != nil:
			t.Errorf("%s: refused with a tensor", name)
		}
	}
	// Responses: malformed (worth a retry) is "not one whole self-consistent
	// frame"; a clean frame of the wrong shape is not.
	for name, want := range map[string]struct {
		n         int
		malformed bool
		err       string
	}{
		"response":              {n: 2},
		"response screened":     {n: 2},
		"response leaked row":   {n: 2},
		"response empty block":  {n: 1},
		"response null block":   {n: 1},
		"response short block":  {n: 2, err: "endpoint returned 1 screening entries for 2 inputs"},
		"response broken block": {n: 1, malformed: true, err: "decode response: screening block: unexpected end of JSON input"},
		"response NaN":          {n: 1, err: "endpoint returned a non-finite value NaN (row 0, column 1)"},
		"response no length":    {n: 1, malformed: true, err: "decode response: payload holds 24 bytes after its header, 1 rows of 3 classes need more"},
		"response long length":  {n: 1, malformed: true, err: "decode response: screening block of 0 bytes, its length word claims 9"},
		"response 2^32-1 rows":  {n: 1, err: "endpoint returned 4294967295 rows for 1 inputs"},
		"bad CRC":               {n: 2, malformed: true, err: "decode response: binio: frame corrupt: frame has CRC"},
		"trailing bytes":        {n: 2, malformed: true, err: "decode response: binio: frame corrupt"},
		"json":                  {n: 1, malformed: true, err: "decode response: binio: frame corrupt"},
	} {
		out, _, malformed, err := parsePredictResponse(nil, ContentTypeBinaryPredict, seeds[name], want.n, fuzzWidth)
		switch {
		case want.err == "" && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case want.err != "" && (err == nil || !strings.HasPrefix(err.Error(), want.err)):
			t.Errorf("%s: error %v, want %q", name, err, want.err)
		case malformed != want.malformed:
			t.Errorf("%s: malformed=%v (%v)", name, malformed, err)
		case want.err != "" && out != nil:
			t.Errorf("%s: refused with a tensor", name)
		}
	}
	if _, _, malformed, err := parsePredictResponse(nil, ContentTypeBinaryPredict, seeds["response"], 3, fuzzWidth); err == nil || malformed ||
		err.Error() != "endpoint returned 2 rows for 3 inputs" {
		t.Errorf("two rows for three inputs: malformed=%v err=%v", malformed, err)
	}
	if _, _, malformed, err := parsePredictResponse(nil, ContentTypeBinaryPredict, seeds["response"], 2, 4); err == nil || malformed ||
		err.Error() != "rows have 3 classes, want 4" {
		t.Errorf("three classes for four: malformed=%v err=%v", malformed, err)
	}
}

// A body that is going to be refused costs each decoder at most its own
// length plus a constant: counts inside it size nothing until they have been
// held against max_batch and against the bytes that actually arrived.
func TestPredictBinaryRefusalAllocatesNoMoreThanTheBody(t *testing.T) {
	const slack = 4 << 10 // the error values and their messages
	for name, body := range binarySeeds(t) {
		// TotalAlloc is process-wide: take the quietest of a few tries.
		best := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, reqErr := parsePredictRequest(nil, ContentTypeBinaryPredict, body, 1<<20, fuzzWidth)
			_, _, _, respErr := parsePredictResponse(nil, ContentTypeBinaryPredict, body, 1, fuzzWidth)
			runtime.ReadMemStats(&after)
			if reqErr == nil || respErr == nil {
				best = 0 // accepted by one of them: not this test's business
				break
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if best > uint64(2*len(body)+slack) {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes", name, len(body), best)
		}
	}
}

// FuzzPredictBinary: arbitrary bytes never panic the binary decoders, and
// whatever they accept re-encodes to itself. Each input is judged twice, as a
// body and as the payload of a well-formed frame — mutation does not find
// CRC-32 preimages, and most of the decoders sits behind that check.
func FuzzPredictBinary(f *testing.F) {
	for _, body := range binarySeeds(f) {
		f.Add(body)
		if len(body) >= binio.FrameHeaderSize {
			f.Add(body[binio.FrameHeaderSize:])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBinaryDecoders(t, body)
		checkBinaryDecoders(t, binFrame(t, body))
	})
}

// The two spellings carry the same values: for random finite bit patterns
// and the points where encoding/json changes format, encode → decode through
// JSON and through the frame yields the same tensor bit for bit, the same
// screen flag and the same screening block, withheld rows included.
func TestPredictCodecsAgree(t *testing.T) {
	roundTrip := func(ct string, x *tensor.Tensor, optOut bool, probs *tensor.Tensor, screening []Screening) (*tensor.Tensor, bool, *tensor.Tensor, []Screening) {
		t.Helper()
		req, err := appendPredictRequest(nil, ct, x.Data, x.Dim(1), optOut)
		if err != nil {
			t.Fatal(err)
		}
		in, screen, err := parsePredictRequest(nil, ct, req, x.Dim(0), x.Dim(1))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := appendPredictResponse(nil, ct, probs.Data, probs.Dim(1), screening)
		if err != nil {
			t.Fatal(err)
		}
		out, scr, malformed, err := parsePredictResponse(nil, ct, resp, probs.Dim(0), probs.Dim(1))
		if err != nil || malformed {
			t.Fatalf("%s response: malformed=%v err=%v", ct, malformed, err)
		}
		return in, screen, out, scr
	}
	for seed := uint64(1); seed <= 4; seed++ {
		x, probs := wireFloats(seed, 7, 33), wireFloats(seed+100, 5, 10)
		annotated, rejected := make([]Screening, 5), make([]Screening, 5)
		for i := range annotated {
			annotated[i] = Screening{Score: 0.25 * float64(i), Flagged: i%2 == 1, Threshold: 0.5}
			rejected[i] = annotated[i]
			if i%2 == 1 {
				rejected[i].Rejected = true
				rejected[i].Error = "input <flagged> & withheld"
			}
		}
		for name, screening := range map[string][]Screening{"plain": nil, "annotated": annotated, "rejected": rejected} {
			for _, optOut := range []bool{false, true} {
				jIn, jScreen, jOut, jScr := roundTrip(contentTypeJSON, x, optOut, probs, screening)
				bIn, bScreen, bOut, bScr := roundTrip(ContentTypeBinaryPredict, x, optOut, probs, screening)
				sameBits(t, name+" request", bIn, jIn)
				sameBits(t, name+" request vs source", bIn, x)
				sameBits(t, name+" response", bOut, jOut)
				if bScreen != jScreen || bScreen == optOut {
					t.Fatalf("%s optOut=%v: screen json=%v binary=%v", name, optOut, jScreen, bScreen)
				}
				if !reflect.DeepEqual(bScr, jScr) || !reflect.DeepEqual(bScr, screening) {
					t.Fatalf("%s: screening json=%+v binary=%+v", name, jScr, bScr)
				}
			}
		}
	}
}

// --- Over HTTP ---------------------------------------------------------------------

// predictTypes counts the Content-Type of every predict request that passes
// and of every response to one.
type predictTypes struct {
	mu        sync.Mutex
	requests  map[string]int
	responses map[string]int
}

func (p *predictTypes) wrap(h http.Handler) http.Handler {
	p.requests, p.responses = map[string]int{}, map[string]int{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/predict") {
			p.mu.Lock()
			p.requests[r.Header.Get("Content-Type")]++
			p.responses[w.Header().Get("Content-Type")]++
			p.mu.Unlock()
		}
	})
}

// only reports whether at least one predict passed and all of them, both
// ways, were of content type ct.
func (p *predictTypes) only(ct string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests[ct] > 0 && len(p.requests) == 1 && p.responses[ct] == p.requests[ct] && len(p.responses) == 1
}

// count is how many predicts came in as ct.
func (p *predictTypes) count(ct string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests[ct]
}

// withoutWire serves h the way an endpoint that predates the "wire" info
// field does: the field is missing from its info documents.
func withoutWire(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/info") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err == nil {
			delete(doc, "wire")
		}
		w.Header().Set("Content-Type", contentTypeJSON)
		w.WriteHeader(rec.Code)
		_ = json.NewEncoder(w).Encode(doc)
	})
}

// predictNode serves m at max_batch 4 with its predicts counted in types, as
// an endpoint that predates the "wire" info field when legacy is set.
func predictNode(t *testing.T, m *nn.Model, types *predictTypes, legacy bool) *httptest.Server {
	t.Helper()
	s := NewServer(m, ServerConfig{MaxBatch: 4})
	t.Cleanup(s.Close)
	h := types.wrap(s.Handler())
	if legacy {
		h = withoutWire(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// In-repo clients speak the frame on every predict, to a node and through a
// gateway on both of its legs; an endpoint that does not advertise it is
// spoken to in JSON; and the answers are the same bits either way. A silent
// fall-back to JSON would be a 3× slowdown no other test notices.
func TestBinaryPredictIsNegotiated(t *testing.T) {
	ctx := context.Background()
	m := testModel(t)
	x := tensor.New(11, 16) // max_batch 4: three chunks
	rng.New(21).Uniform(x.Data, 0, 1)
	want := m.Predict(x.Clone())

	predict := func(t *testing.T, url string) {
		t.Helper()
		c, err := Dial(ctx, url, ClientConfig{Retries: NoRetries})
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			got, err := c.Predict(ctx, x.Clone())
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "confidences", got, want)
		}
	}
	gateway := func(t *testing.T, types *predictTypes, nodes ...string) *httptest.Server {
		t.Helper()
		g, err := NewGateway(ctx, gwTestConfig(nodes...))
		if err != nil {
			t.Fatal(err)
		}
		gs := NewGatewayServer(g)
		t.Cleanup(gs.Close)
		srv := httptest.NewServer(types.wrap(gs.Handler()))
		t.Cleanup(srv.Close)
		return srv
	}

	t.Run("client to node", func(t *testing.T) {
		var types predictTypes
		srv := predictNode(t, m, &types, false)
		var info infoResponse
		resp, err := http.Get(srv.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || !reflect.DeepEqual(info.Wire, []string{ContentTypeBinaryPredict}) {
			t.Fatalf("info advertises wire %v (%v)", info.Wire, err)
		}
		predict(t, srv.URL)
		if !types.only(ContentTypeBinaryPredict) {
			t.Fatalf("predict content types: requests %v, responses %v", types.requests, types.responses)
		}
	})
	t.Run("client to legacy node", func(t *testing.T) {
		var types predictTypes
		predict(t, predictNode(t, m, &types, true).URL)
		if !types.only(contentTypeJSON) {
			t.Fatalf("predict content types: requests %v, responses %v", types.requests, types.responses)
		}
	})
	t.Run("client to gateway to nodes", func(t *testing.T) {
		var edge, n0, n1 predictTypes
		gw := gateway(t, &edge, predictNode(t, m, &n0, false).URL, predictNode(t, m, &n1, false).URL)
		predict(t, gw.URL)
		if !edge.only(ContentTypeBinaryPredict) {
			t.Fatalf("edge content types: requests %v, responses %v", edge.requests, edge.responses)
		}
		// Replication 1: one of the two nodes owns the model and took it all.
		owner := &n0
		if len(n0.requests) == 0 {
			owner = &n1
		}
		if !owner.only(ContentTypeBinaryPredict) || len(n0.requests)+len(n1.requests) != 1 {
			t.Fatalf("node content types: n0 %v, n1 %v", n0.requests, n1.requests)
		}
	})
	t.Run("client to gateway to legacy node", func(t *testing.T) {
		var edge, n0 predictTypes
		gw := gateway(t, &edge, predictNode(t, m, &n0, true).URL)
		predict(t, gw.URL)
		if !edge.only(ContentTypeBinaryPredict) || !n0.only(contentTypeJSON) {
			t.Fatalf("edge %v, node %v", edge.requests, n0.requests)
		}
	})
}

// Client.PredictInto decodes every reply straight into the caller's tensor:
// a batch wider than max_batch goes out as parallel chunks, each answered
// into its own rows, with Predict's bits in both spellings and through the
// oracle package's entry points, which count the rows once. A destination of
// the wrong shape is refused before anything is sent. Through a gateway whose
// first replica is dead, the surviving node's reply lands in the handler's
// destination over whatever the dead one left there.
func TestClientPredictInto(t *testing.T) {
	ctx := context.Background()
	m := testModel(t)
	x := tensor.New(11, 16) // max_batch 4: three parallel chunks
	rng.New(23).Uniform(x.Data, 0, 1)
	want := m.Predict(x.Clone())
	poisoned := func() *tensor.Tensor {
		dst := tensor.New(x.Dim(0), m.NumClasses)
		dst.Fill(math.NaN())
		return dst
	}
	for _, leg := range []struct {
		ct     string
		legacy bool
	}{{contentTypeJSON, true}, {ContentTypeBinaryPredict, false}} {
		t.Run(leg.ct, func(t *testing.T) {
			var types predictTypes
			c, err := Dial(ctx, predictNode(t, m, &types, leg.legacy).URL, ClientConfig{Retries: NoRetries})
			if err != nil {
				t.Fatal(err)
			}
			viaPredict, err := c.Predict(ctx, x.Clone())
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Predict", viaPredict, want)
			dst := poisoned()
			if err := c.PredictInto(ctx, dst, x); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "PredictInto", dst, want)
			counter := oracle.NewCounter(c)
			for _, o := range []oracle.Oracle{c, counter} {
				dst := poisoned()
				if err := oracle.PredictInto(ctx, o, dst, x); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("oracle.PredictInto(%T)", o), dst, want)
			}
			if got := counter.Queries(); got != int64(x.Dim(0)) {
				t.Errorf("counter charged %d rows for one %d-row call", got, x.Dim(0))
			}
			if !types.only(leg.ct) || types.count(leg.ct) != 4*3 {
				t.Fatalf("%d predicts, want 12, all %s", types.count(leg.ct), leg.ct)
			}
			for _, bad := range []*tensor.Tensor{tensor.New(x.Dim(0)-1, m.NumClasses), tensor.New(x.Dim(0), m.NumClasses+1), tensor.New(x.Dim(0) * m.NumClasses)} {
				err := c.PredictInto(ctx, bad, x)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad.Shape())) || !strings.Contains(err.Error(), fmt.Sprintf("[%d %d]", x.Dim(0), m.NumClasses)) {
					t.Errorf("destination %v: error %v, want one naming both shapes", bad.Shape(), err)
				}
			}
			if n := types.count(leg.ct); n != 4*3 {
				t.Errorf("a refused destination sent %d predicts", n-4*3)
			}
		})
	}

	t.Run("gateway failover", func(t *testing.T) {
		var types [2]predictTypes
		nodes := []*httptest.Server{predictNode(t, m, &types[0], false), predictNode(t, m, &types[1], false)}
		cfg := gwTestConfig(nodes[0].URL, nodes[1].URL)
		cfg.Replication = 2
		chaos := NewChaosTransport(nil)
		cfg.Client.HTTPClient = &http.Client{Transport: chaos}
		g, err := NewGateway(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		// Two predicts, one starting on each replica, dial both nodes; then
		// the replica the next predict tries first is killed.
		for range 2 {
			if _, _, err := g.predict(ctx, "", x, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		bin := ContentTypeBinaryPredict
		served := [2]int{types[0].count(bin), types[1].count(bin)}
		if served != [2]int{3, 3} {
			t.Fatalf("warm-up predicts per node %v, want one 3-chunk call each", served)
		}
		replicas, _, _ := g.replicasFor(g.resolveID(""))
		if len(replicas) != 2 {
			t.Fatalf("%d replicas, want 2", len(replicas))
		}
		first := replicas[(g.rr.Load()+1)%2]
		dead := 0
		if first.base != nodes[0].URL {
			dead = 1
		}
		chaos.Set(hostOf(nodes[dead].URL), ChaosRule{Kill: true})
		dst := poisoned()
		got, _, err := g.predict(ctx, "", x, dst, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != dst {
			t.Error("the gateway answered into a tensor of its own")
		}
		sameBits(t, "gateway PredictInto after failover", dst, want)
		if first.isHealthy() || types[dead].count(bin) != 3 || types[1-dead].count(bin) != 6 {
			t.Errorf("the dead replica was not tried first: healthy %v, predicts per node %d %d",
				first.isHealthy(), types[0].count(bin), types[1].count(bin))
		}
	})
}

// postPredict posts one raw predict body and returns status, content type
// and body of the reply.
func postPredict(t *testing.T, url, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), raw
}

// The binary route refuses what the JSON route refuses, with the same
// statuses: one byte over the cap is a 413, everything wrong with the body
// itself a 400 whose message says what.
func TestBinaryPredictRefusalsOverHTTP(t *testing.T) {
	srv, m := startTestServer(t, ServerConfig{MaxBatch: 2})
	url := srv.URL + "/v1/predict"
	x := tensor.New(2, 16)
	rng.New(4).Uniform(x.Data, 0, 1)
	good, err := appendPredictRequest(nil, ContentTypeBinaryPredict, x.Data, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 8 + 9 + 8*2*16
	if len(good) != limit {
		t.Fatalf("a full batch is %d bytes, the documented cap is %d", len(good), limit)
	}

	// A full batch is exactly the cap, and is served — in the type it came in.
	status, ct, raw := postPredict(t, url, ContentTypeBinaryPredict, good)
	if status != 200 || ct != ContentTypeBinaryPredict {
		t.Fatalf("full batch: %d %s %q", status, ct, raw)
	}
	got, _, malformed, err := parsePredictResponse(nil, ct, raw, 2, 3)
	if err != nil || malformed {
		t.Fatal(err)
	}
	sameBits(t, "raw binary predict", got, m.Predict(x.Clone()))

	// The same request in JSON gets the JSON it always got, from the same bits.
	jsonBody, _ := appendPredictRequest(nil, contentTypeJSON, x.Data, 16, false)
	status, ct, raw = postPredict(t, url, contentTypeJSON, jsonBody)
	wantJSON, _ := appendPredictResponse(nil, contentTypeJSON, got.Data, 3, nil)
	if status != 200 || ct != contentTypeJSON || !bytes.Equal(raw, wantJSON) {
		t.Fatalf("JSON predict: %d %s %q, want %q", status, ct, raw, wantJSON)
	}

	mutate := func(f func(payload []byte) []byte) []byte {
		return binFrame(t, f(bytes.Clone(good[binio.FrameHeaderSize:])))
	}
	withValue := func(f float64) []byte {
		return mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[binRequestHeader+8*17:], math.Float64bits(f))
			return p
		})
	}
	flipped := bytes.Clone(good)
	flipped[40] ^= 0x10
	for name, tc := range map[string]struct {
		body   []byte
		status int
		msg    string
	}{
		"cap + 1":       {append(bytes.Clone(good), 0), 413, "request too large"},
		"far over cap":  {make([]byte, 4*limit), 413, "request too large"},
		"bad CRC":       {flipped, 400, "decode: binio: frame corrupt: frame has CRC"},
		"truncated":     {good[:len(good)-1], 400, "decode: binio: frame corrupt: frame holds 264 payload bytes, header claims 265"},
		"not a frame":   {jsonBody[:limit], 400, "decode: binio: frame corrupt: frame claims"},
		"rows > max":    {binFrame(t, binRequestPayload(3, 16, 0)), 400, "batch 3 exceeds limit 2"},
		"rows 2^32-1":   {binFrame(t, binRequestPayload(math.MaxUint32, 16, 0)), 400, "batch 4294967295 exceeds limit 2"},
		"no rows":       {binFrame(t, binRequestPayload(0, 16, 0)), 400, "empty batch"},
		"wrong width":   {binFrame(t, binRequestPayload(2, 15, 0, make([]float64, 30)...)), 400, "samples have 15 values, want 16"},
		"short payload": {binFrame(t, binRequestPayload(2, 16, 0, make([]float64, 31)...)), 400, "decode: payload holds 248 bytes of samples, its header claims 256"},
		"unknown flags": {mutate(func(p []byte) []byte { p[8] = 0x81; return p }), 400, "decode: unknown flag bits 0x81"},
		"NaN input":     {withValue(math.NaN()), 400, "non-finite value NaN (row 1, column 1)"},
		"+Inf input":    {withValue(math.Inf(1)), 400, "non-finite value +Inf (row 1, column 1)"},
		"-Inf input":    {withValue(math.Inf(-1)), 400, "non-finite value -Inf (row 1, column 1)"},
	} {
		status, ct, raw := postPredict(t, url, ContentTypeBinaryPredict, tc.body)
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Errorf("%s: reply is not an error envelope: %q", name, raw)
			continue
		}
		if status != tc.status || ct != contentTypeJSON || !strings.HasPrefix(er.Error, tc.msg) {
			t.Errorf("%s:\n got %d %s %q\nwant %d %q", name, status, ct, er.Error, tc.status, tc.msg)
		}
	}
	// -0 and subnormals are values like any other.
	if status, _, raw := postPredict(t, url, ContentTypeBinaryPredict, withValue(math.Copysign(0, -1))); status != 200 {
		t.Errorf("-0 input: %d %q", status, raw)
	}
	if status, _, raw := postPredict(t, url, ContentTypeBinaryPredict, withValue(math.SmallestNonzeroFloat64)); status != 200 {
		t.Errorf("subnormal input: %d %q", status, raw)
	}
}

// Under the reject policy JSON replaces a flagged row by null; the frame has
// no null, and sends zeros. The withheld confidences must be nowhere in the
// body — not in the row, not behind it.
func TestBinaryPredictRejectPolicyWithholdsConfidences(t *testing.T) {
	srv, m := startTestServer(t, ServerConfig{Screener: testScreener(t, 0.05), ScreenPolicy: ScreenReject})
	x := tensor.New(3, 16)
	rng.New(8).Uniform(x.Data, 0, 1)
	withheld := m.Predict(x.Clone())
	req, _ := appendPredictRequest(nil, ContentTypeBinaryPredict, x.Data, 16, false)
	status, ct, raw := postPredict(t, srv.URL+"/v1/predict", ContentTypeBinaryPredict, req)
	if status != 200 || ct != ContentTypeBinaryPredict {
		t.Fatalf("%d %s %q", status, ct, raw)
	}
	out, scr, _, err := parsePredictResponse(nil, ct, raw, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scr {
		if !scr[i].Rejected || scr[i].Error == "" {
			t.Fatalf("row %d not rejected: %+v", i, scr[i])
		}
	}
	for i, v := range out.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("withheld confidence %d is %v, want +0", i, v)
		}
	}
	for i, v := range withheld.Data {
		if bytes.Contains(raw, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) {
			t.Fatalf("withheld confidence %d (%v) is in the body", i, v)
		}
	}
	// The opt-out flag is honoured in this spelling too.
	req, _ = appendPredictRequest(nil, ContentTypeBinaryPredict, x.Data, 16, true)
	_, ct, raw = postPredict(t, srv.URL+"/v1/predict", ContentTypeBinaryPredict, req)
	out, scr, _, err = parsePredictResponse(nil, ct, raw, 3, 3)
	if err != nil || scr != nil {
		t.Fatalf("opt-out: screening %+v, err %v", scr, err)
	}
	sameBits(t, "opt-out confidences", out, withheld)
}

// healingTransport lifts a host's chaos rule once `after` predict replies
// have been corrupted, so a retry loop meets damage a known number of times.
type healingTransport struct {
	chaos *ChaosTransport
	mu    sync.Mutex
	after int
	seen  int
}

func (h *healingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.chaos.RoundTrip(req)
	if req.Method == http.MethodPost {
		h.mu.Lock()
		if h.seen++; h.seen == h.after {
			h.chaos.Clear(req.URL.Host)
		}
		h.mu.Unlock()
	}
	return resp, err
}

// ChaosTransport's corruptBody flips one bit in every 64 bytes. In JSON that
// can turn one digit into another and decode cleanly, to confidences nobody
// sent; under the frame every flipped reply fails its CRC, surfaces as a
// malformed — hence retryable — response, and the retry returns the reference
// bit for bit.
func TestChaosCorruptedBinaryReplyIsRetried(t *testing.T) {
	ctx := context.Background()
	srv, m := startTestServer(t, ServerConfig{MaxBatch: 64})
	host := strings.TrimPrefix(srv.URL, "http://")
	chaos := NewChaosTransport(nil)
	heal := &healingTransport{chaos: chaos}
	once, err := Dial(ctx, srv.URL, ClientConfig{Retries: NoRetries, HTTPClient: &http.Client{Transport: chaos}})
	if err != nil {
		t.Fatal(err)
	}
	retrying, err := Dial(ctx, srv.URL, ClientConfig{Retries: 1, HTTPClient: &http.Client{Transport: heal}})
	if err != nil {
		t.Fatal(err)
	}
	if once.contentType != ContentTypeBinaryPredict {
		t.Fatalf("client negotiated %q", once.contentType)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		// 1 to 64 rows: replies from 40 bytes to 1.5 KiB, 1 to 25 flipped bits.
		x := tensor.New(int(seed*seed), 16)
		rng.New(seed).Uniform(x.Data, 0, 1)
		want := m.Predict(x.Clone())
		payload := newRequestPayload()
		*payload.buf, _ = appendPredictRequest((*payload.buf)[:0], ContentTypeBinaryPredict, x.Data, 16, false)

		chaos.Set(host, ChaosRule{CorruptPath: "/predict"})
		out := make([]float64, x.Dim(0)*once.classes)
		_, permanent, err := once.predictOnce(ctx, payload, out)
		if err == nil || permanent || slices.ContainsFunc(out, func(f float64) bool { return f != 0 }) || !strings.Contains(err.Error(), "frame corrupt") {
			t.Fatalf("seed %d: corrupted reply: permanent=%v err=%v", seed, permanent, err)
		}
		if _, err := once.Predict(ctx, x); err == nil {
			t.Fatalf("seed %d: corrupted reply accepted without retries", seed)
		}

		// First reply damaged, rule lifted, second clean: Predict succeeds.
		// (The client's backoff before a retry is real time; two seeds do.)
		if seed > 2 {
			continue
		}
		chaos.Set(host, ChaosRule{CorruptPath: "/predict"})
		heal.after, heal.seen = 1, 0
		got, err := retrying.Predict(ctx, x)
		if err != nil {
			t.Fatalf("seed %d: retried predict: %v", seed, err)
		}
		if heal.seen != 2 {
			t.Fatalf("seed %d: %d attempts, want the corrupted one and its retry", seed, heal.seen)
		}
		sameBits(t, "retried predict", got, want)
	}
}
