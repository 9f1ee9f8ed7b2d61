package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"bprom/internal/binio"
)

// Checkpoint metadata. A saved model is two files: the binary weights
// (Save/Load, see serialize.go) and an optional JSON sidecar next to it
// carrying human-facing metadata — a display name, provenance notes, and
// training metrics — that the binary format deliberately does not encode.
// The MLaaS registry scans checkpoint directories with ReadHeaderFile (a
// few dozen bytes per model, no weight I/O) and enriches listings from the
// sidecars, so a model zoo can be enumerated without loading a single
// weight tensor.

// Header is the fixed prelude of the binary model format: everything Save
// writes before the layer list. It identifies a checkpoint — architecture
// family, input width, label-space size — at the cost of reading ~40 bytes.
type Header struct {
	// Version is the on-disk format version (currently 1).
	Version uint32
	// Arch is the architecture family the model was built from.
	Arch Arch
	// InputDim is the flattened per-sample input width.
	InputDim int
	// NumClasses is the label-space size.
	NumClasses int
}

// ReadHeaderFile reads just the checkpoint prelude from path. It is the
// cheap way to identify a model file: no weights are read.
func ReadHeaderFile(path string) (Header, error) {
	return binio.LoadFile(path, func(r *binio.Reader) (Header, error) {
		return decodeHeader(r), r.Err()
	})
}

// decodeHeader reads everything Save writes before the layer list, leaving r
// at the first layer tag.
func decodeHeader(r *binio.Reader) Header {
	r.Prelude(formatMagic, formatVersion)
	return Header{Version: formatVersion, Arch: Arch(r.String()), InputDim: int(r.U32()), NumClasses: int(r.U32())}
}

// Sidecar is the JSON metadata file written next to a checkpoint
// (<model>.bin -> <model>.bin.json). It duplicates the binary header's
// shape fields for grep-ability and adds the free-form fields an MLaaS
// listing wants to show: a display name, a provenance note (e.g. which
// backdoor attack poisoned the training set), and training metrics.
type Sidecar struct {
	// Name is a human-facing display name for model listings.
	Name string `json:"name,omitempty"`
	// Note records provenance: how the checkpoint was produced.
	Note string `json:"note,omitempty"`
	// Arch mirrors the binary header's architecture family.
	Arch string `json:"arch,omitempty"`
	// InputDim mirrors the binary header's flattened input width.
	InputDim int `json:"input_dim,omitempty"`
	// NumClasses mirrors the binary header's label-space size.
	NumClasses int `json:"classes,omitempty"`
	// Params is the trainable-scalar count of the saved model.
	Params int `json:"params,omitempty"`
	// Precision is kept so older zoos still parse: every model is served on
	// the exact float64 path, so "" and "fp64" are the only values a
	// serving registry accepts. Anything else (notably "int8", from before
	// int8 serving was removed) fails the registry scan.
	Precision string `json:"precision,omitempty"`
	// Screen optionally overrides a serving registry's inline request
	// screening for this model: "off" opts a model out (e.g. a calibration
	// model whose inputs are legitimately prompt-like), "on" asserts the
	// model must be screened (the registry scan fails when it cannot be).
	// Empty means follow the registry default — screen whenever a
	// compatible screener is configured.
	Screen string `json:"screen,omitempty"`
	// Metrics holds free-form training/evaluation numbers (e.g. "acc",
	// "asr" for the attack zoo's checkpoints).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// SidecarFor assembles a Sidecar describing m.
func SidecarFor(m *Model, name, note string) Sidecar {
	return Sidecar{
		Name:       name,
		Note:       note,
		Arch:       string(m.Arch),
		InputDim:   m.InputDim,
		NumClasses: m.NumClasses,
		Params:     m.ParamCount(),
	}
}

// SidecarPath returns the sidecar path for a model file path.
func SidecarPath(modelPath string) string { return modelPath + ".json" }

// WriteFile writes the sidecar next to the model file at modelPath.
func (s Sidecar) WriteFile(modelPath string) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("nn: encode sidecar: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(SidecarPath(modelPath), buf, 0o644); err != nil {
		return fmt.Errorf("nn: write sidecar: %w", err)
	}
	return nil
}

// ReadSidecar loads the sidecar for the model file at modelPath. A missing
// sidecar is not an error: it returns ok=false (sidecars are optional — the
// binary header alone identifies a checkpoint).
func ReadSidecar(modelPath string) (s Sidecar, ok bool, err error) {
	buf, err := os.ReadFile(SidecarPath(modelPath))
	if errors.Is(err, fs.ErrNotExist) {
		return Sidecar{}, false, nil
	}
	if err != nil {
		return Sidecar{}, false, fmt.Errorf("nn: read sidecar: %w", err)
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return Sidecar{}, false, fmt.Errorf("nn: decode sidecar %s: %w", SidecarPath(modelPath), err)
	}
	return s, true, nil
}
