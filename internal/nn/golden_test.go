package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// The golden checkpoint guards the binary format against accidental drift:
// formatVersion bumps, layer-tag renumbering, field reordering, or encoding
// changes all break the byte-for-byte comparison below. Regenerate (after
// an INTENTIONAL, versioned format change) with:
//
//	go test ./internal/nn -run TestGoldenCheckpoint -update
var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint testdata")

const (
	goldenModelFile = "golden_v1.bin"
	goldenProbsFile = "golden_v1.probs.json"
)

// goldenModel hand-assembles a model exercising every serializable layer
// tag (Dense, ReLU, Tanh, Dropout, LayerNorm, Residual, Conv2D, Flatten,
// ToImage, GlobalAvgPool) with deterministic weights.
func goldenModel(t *testing.T) *Model {
	t.Helper()
	r := rng.New(0x601d) // deterministic; value itself is arbitrary
	dims := tensor.ConvDims{InC: 1, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := dims.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Arch:       ArchConvLite,
		InputDim:   16,
		NumClasses: 3,
		Layers: []Layer{
			&ToImage{C: 1, H: 4, W: 4},
			NewConv2D(dims, r),
			&ReLU{},
			&Flatten{},
			NewDense(32, 8, r),
			&Tanh{},
			NewLayerNorm(8),
			&Residual{Body: []Layer{NewDense(8, 8, r), &ReLU{}}},
			NewDropout(0.25, r),
			&ToImage{C: 2, H: 2, W: 2},
			&GlobalAvgPool{},
			NewDense(2, 3, r),
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenInput is a fixed probe batch: a deterministic ramp over [0, 1).
func goldenInput() *tensor.Tensor {
	x := tensor.New(4, 16)
	for i := range x.Data {
		x.Data[i] = float64(i%17) / 17
	}
	return x
}

func TestGoldenCheckpointRoundTrip(t *testing.T) {
	modelPath := filepath.Join("testdata", goldenModelFile)
	probsPath := filepath.Join("testdata", goldenProbsFile)

	if *updateGolden {
		m := goldenModel(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := m.SaveFile(modelPath); err != nil {
			t.Fatal(err)
		}
		probs := m.Predict(goldenInput())
		buf, err := json.MarshalIndent(probs.Data, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden checkpoint rewritten: %s", modelPath)
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("read golden checkpoint (regenerate with -update): %v", err)
	}

	// The header must stay at version 1 with the committed shape fields —
	// bumping formatVersion without a migration breaks every saved model.
	h, err := ReadHeaderFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Arch != ArchConvLite || h.InputDim != 16 || h.NumClasses != 3 {
		t.Fatalf("golden header drifted: %+v", h)
	}

	// The checkpoint must load, and re-saving it must reproduce the
	// committed bytes exactly: the encoder is part of the format contract.
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden checkpoint no longer loads: %v", err)
	}
	var resaved bytes.Buffer
	if err := m.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), raw) {
		t.Fatalf("re-saved checkpoint differs from golden bytes (%d vs %d bytes): encoder drifted",
			resaved.Len(), len(raw))
	}

	// And the loaded weights must behave identically: fixed probe inputs
	// produce the committed confidence vectors.
	var want []float64
	buf, err := os.ReadFile(probsPath)
	if err != nil {
		t.Fatalf("read golden probs (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	got := m.Predict(goldenInput())
	if len(want) != got.Len() {
		t.Fatalf("golden probs length %d, model emits %d", len(want), got.Len())
	}
	for i := range want {
		if math.Abs(got.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("golden prediction %d drifted: %v vs %v", i, got.Data[i], want[i])
		}
	}
}

// zooPredictDigests pins Predict's bits on every arenaModels family, in fp64
// and fully quantized, at one narrow and one multi-block width: SHA-256 over
// the Float64bits of the output, row-major. Unlike the parity tests, which
// compare today's entry points with today's kernels, these constants are
// fixed: a change to how a pass is scheduled or blocked must leave every one
// of them alone, and only an intended change of arithmetic may rewrite them.
var zooPredictDigests = map[string]string{
	"odd/fp64/8":            "48da5af6ac62c78e823636097131aeb9cd2317dfead45d2c0dd7806581730c89",
	"odd/fp64/40":           "f8d88c392669535dbc4aad70b0b4f83836be83b32752c7831520dd91593f3686",
	"odd/int8/8":            "379a05bc6062c44900deaeb33c7dd50bbb42305d899d7d19fe55c57842bc862c",
	"odd/int8/40":           "f7df0a90576b64120bdc7fcb861809956215431bd4a9b6108d404dfa9c881a64",
	"resnetlite/fp64/8":     "c8e72acd182e2e91491d8a77ec2be770a732b5f513360c4cac2bf0d7f0b34c34",
	"resnetlite/fp64/40":    "a1e3a84eb255cf2732aabe52973611c5a2a48d6e4992fa5bb768cf189e53c4d7",
	"resnetlite/int8/8":     "bcc7d19a052236c0ec1acac0249c126388d123178854732db45c448ffb3505df",
	"resnetlite/int8/40":    "f290f61935806dae248bd6e22ca3aca9c8941ccaa8db1eccec29a9e873c3d8c8",
	"mobilenetlite/fp64/8":  "001907c99ebe67285ffde3f3b2389b89c86e707e603396236fb1f12b1516a41e",
	"mobilenetlite/fp64/40": "4bba6bbfa7a04d1d0fd4824226fe9da02abd1ea33474951045f3eae9e792f9d2",
	"mobilenetlite/int8/8":  "f4a1da7dc2a822c7165fa4ec470b1d14444b02c7abc61a1987af1b061e0ff882",
	"mobilenetlite/int8/40": "89478fb6f561e76cba4c75a581fb18833bbc78c88255668583f00c3d2b2299de",
	"vitlite/fp64/8":        "40ac601349c4f4e6c1e35309077a7c59b43a9fff64d23f90e7efea5a3ac378b6",
	"vitlite/fp64/40":       "42a018ec6037d7430cc3bde6dd17a5869d2540130575b689177979c5826e7652",
	"vitlite/int8/8":        "f2d40049d24d87175bcf8ce506d6e0885eccee479e8b2f28aeb74a18ef8ed3da",
	"vitlite/int8/40":       "e3aeec46f98dc120c03b610921ac7cc4700eda743d1eb3727b3cb1c5ce328a54",
	"convlite/fp64/8":       "c25c398cbf586f6f702c4bab51ce36d9ef9cf283342be7b8e7a01cc53f329679",
	"convlite/fp64/40":      "8027973caa0a8d92f3fbc259de0f2c1d9716c1ef5cebe1f4cc38081fd36a24ed",
	"convlite/int8/8":       "f5672390faa416da30cb7dab01e4ad86aedca384f38f954d259f6a262ea90a08",
	"convlite/int8/40":      "588149ffae043fe568ab7526e6efdec976ca58d01b5fd5d9840a3d90610501b2",
}

func TestZooPredictDigest(t *testing.T) {
	for _, fp := range arenaModels(t) {
		q := cloneModel(t, fp)
		if q.Quantize(-1) == 0 {
			t.Fatalf("%s: nothing quantized", fp.Arch)
		}
		for _, m := range []*Model{fp, q} {
			precision := "fp64"
			if m == q {
				precision = "int8"
			}
			for _, rows := range []int{benchNarrowRows, 40} {
				x := tensor.New(rows, m.InputDim)
				rng.New(uint64(rows)).Uniform(x.Data, -1, 1)
				var bits []byte
				for _, v := range m.Predict(x).Data {
					bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
				}
				sum := sha256.Sum256(bits)
				label := fmt.Sprintf("%s/%s/%d", fp.Arch, precision, rows)
				if got := hex.EncodeToString(sum[:]); got != zooPredictDigests[label] {
					t.Errorf("%s: Predict digest %s, want %s", label, got, zooPredictDigests[label])
				}
			}
		}
	}
}

// TestSidecarRoundTrip covers the JSON metadata companion of a checkpoint.
func TestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := goldenModel(t)
	path := filepath.Join(dir, "m.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	sc := SidecarFor(m, "zoo/golden", "hand-built golden model")
	sc.Metrics = map[string]float64{"acc": 0.5}
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadSidecar(path)
	if err != nil || !ok {
		t.Fatalf("sidecar read: ok=%v err=%v", ok, err)
	}
	if got.Name != "zoo/golden" || got.Params != m.ParamCount() || got.Metrics["acc"] != 0.5 {
		t.Fatalf("sidecar round trip: %+v", got)
	}
	if got.InputDim != 16 || got.NumClasses != 3 || got.Arch != string(ArchConvLite) {
		t.Fatalf("sidecar shape fields: %+v", got)
	}
	// Missing sidecars are ok=false, not errors.
	_, ok, err = ReadSidecar(filepath.Join(dir, "absent.bin"))
	if err != nil || ok {
		t.Fatalf("missing sidecar: ok=%v err=%v", ok, err)
	}
}
