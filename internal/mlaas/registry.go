package mlaas

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bprom/internal/nn"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// RegistryConfig tunes a checkpoint registry.
type RegistryConfig struct {
	// MaxLoaded bounds the LRU hot-set: at most this many models are
	// resident (weights in memory, engine running) at once; the rest stay
	// on disk until requested. Default 4. The bound is soft under pressure:
	// a model with requests in flight is never evicted, so the hot-set can
	// transiently overshoot rather than break active predictions.
	MaxLoaded int
	// MaxBatch bounds samples per request for every hosted model, and is
	// each engine's micro-batch coalescing target. Default 512.
	MaxBatch int
	// MaxConcurrent is the number of micro-batch workers per hot model.
	// All engines share the one process-wide tensor worker pool, so this
	// adds request-level concurrency, not CPU oversubscription. A pass of
	// at most one row block (16 rows) runs entirely on its worker, so at
	// most MaxConcurrent narrow passes per model run at once and the pool's
	// width does not matter to them. Default 4.
	MaxConcurrent int
	// Default selects the model served by the legacy un-prefixed routes.
	// Empty means: the checkpoint named "clean" if present, else the first
	// id in sorted order.
	Default string
	// Quantize makes int8 the registry's default serving precision: models
	// are quantized right after their weights load (nn.Model.Quantize with
	// the default weight floor), so hot-set residency is charged at int8
	// size — roughly 4x more checkpoints fit the same memory budget.
	// Checkpoints are always stored full-precision on disk; quantization is
	// derived at load and never persisted. A sidecar "precision" field
	// overrides the default per model in either direction: "fp64" pins a
	// model to the bit-exact float path (experiment reproducibility),
	// "int8" quantizes one model on an otherwise full-precision registry.
	Quantize bool
	// Screener enables inline request screening (typically derived from a
	// detector artifact via bprom.Detector.Screener) on every hosted model
	// whose input width matches the screener's prompt canvas; incompatible
	// models serve unscreened. A sidecar "screen" field overrides per model:
	// "off" opts a compatible model out, "on" asserts screening (a scan
	// error when the registry has no screener or the shapes mismatch).
	Screener *vp.Screener
	// ScreenPolicy picks what happens to flagged rows: ScreenAnnotate
	// (default) or ScreenReject. Ignored without a Screener.
	ScreenPolicy string
}

func (c *RegistryConfig) defaults() {
	if c.MaxLoaded <= 0 {
		c.MaxLoaded = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.ScreenPolicy == "" {
		c.ScreenPolicy = ScreenAnnotate
	}
}

// regEntry is one discovered checkpoint. Scan metadata (info) is immutable
// after OpenRegistry except for info.Loaded; eng/refs/lastUse are guarded
// by Registry.mu, and loadMu serializes the disk load so concurrent first
// requests read the file once.
type regEntry struct {
	id   string
	path string
	info ModelInfo
	// quantize is the precision resolved at scan time: the registry default,
	// unless the sidecar's "precision" field overrode it for this model.
	quantize bool
	// screen is the screening coverage resolved at scan time: the registry
	// carries a compatible screener and the sidecar did not opt out.
	screen bool

	loadMu  sync.Mutex
	eng     *engine
	refs    int
	lastUse uint64
	// residentBytes is what this entry currently charges against the
	// registry's resident-weight total: the loaded model's WeightBytes()
	// (int8-sized for quantized entries), 0 while cold.
	residentBytes int
}

// Registry hosts a directory of saved checkpoints (*.bin in the versioned
// nn binary format, with optional *.bin.json sidecars) behind the provider
// interface. OpenRegistry scans the directory eagerly — headers and
// sidecars only, a few dozen bytes per model — and loads weights lazily on
// the first predict for each model. A bounded LRU hot-set (MaxLoaded) caps
// resident models: loading a cold model evicts the least-recently-used
// idle one, closing its engine and dropping its weights. Every hot model
// runs its own micro-batch worker group; all groups share the process-wide
// tensor worker pool.
//
// Registry implements the provider interface, so NewRegistryServer exposes
// it over HTTP; it is equally usable in-process (see examples/fleet).
type Registry struct {
	cfg       RegistryConfig
	defaultID string

	mu            sync.Mutex
	entries       map[string]*regEntry
	ids           []string // sorted
	tick          uint64
	loaded        int
	residentBytes int
	closed        bool
}

var _ provider = (*Registry)(nil)

// OpenRegistry scans dir for checkpoints and returns a registry hosting
// them. Every *.bin file must parse as an nn checkpoint header; sidecars
// (*.bin.json) are optional and enrich listings with names, notes, and
// parameter counts. At least one checkpoint is required.
func OpenRegistry(dir string, cfg RegistryConfig) (*Registry, error) {
	if !validScreenPolicy(cfg.ScreenPolicy) {
		return nil, fmt.Errorf("mlaas: unknown screen policy %q (want %q or %q)", cfg.ScreenPolicy, ScreenAnnotate, ScreenReject)
	}
	cfg.defaults()
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mlaas: scan registry dir: %w", err)
	}
	r := &Registry{cfg: cfg, entries: make(map[string]*regEntry)}
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".bin") {
			continue
		}
		id := strings.TrimSuffix(name, ".bin")
		path := filepath.Join(dir, name)
		h, err := nn.ReadHeaderFile(path)
		if err != nil {
			return nil, fmt.Errorf("mlaas: checkpoint %q: %w", id, err)
		}
		sc, _, err := nn.ReadSidecar(path)
		if err != nil {
			return nil, fmt.Errorf("mlaas: checkpoint %q: %w", id, err)
		}
		display := sc.Name
		if display == "" {
			display = id
		}
		// Serving precision: registry default, unless the sidecar pins this
		// model. Unknown values are a scan error — a typo silently serving
		// the wrong precision would defeat the fp-exact fallback.
		quantize := cfg.Quantize
		switch sc.Precision {
		case "":
		case nn.PrecisionFP64:
			quantize = false
		case nn.PrecisionInt8:
			quantize = true
		default:
			return nil, fmt.Errorf("mlaas: checkpoint %q: sidecar precision %q (want %q or %q)",
				id, sc.Precision, nn.PrecisionFP64, nn.PrecisionInt8)
		}
		precision := nn.PrecisionFP64
		if quantize {
			precision = nn.PrecisionInt8
		}
		// Screening coverage: default on for every model the screener's
		// prompt canvas fits, with a per-model sidecar override. "on" is an
		// assertion, so a zoo that REQUIRES screening fails the scan loudly
		// instead of serving a silently unscreened model.
		screen := cfg.Screener != nil && cfg.Screener.InputDim() == h.InputDim
		switch sc.Screen {
		case "":
		case "off":
			screen = false
		case "on":
			if cfg.Screener == nil {
				return nil, fmt.Errorf("mlaas: checkpoint %q: sidecar requires screening but the registry has no screener", id)
			}
			if cfg.Screener.InputDim() != h.InputDim {
				return nil, fmt.Errorf("mlaas: checkpoint %q: sidecar requires screening but its input width %d != screener canvas %d",
					id, h.InputDim, cfg.Screener.InputDim())
			}
		default:
			return nil, fmt.Errorf("mlaas: checkpoint %q: sidecar screen %q (want \"on\" or \"off\")", id, sc.Screen)
		}
		r.entries[id] = &regEntry{
			id:       id,
			path:     path,
			quantize: quantize,
			screen:   screen,
			info: ModelInfo{
				ID:        id,
				Name:      display,
				Arch:      string(h.Arch),
				Note:      sc.Note,
				Classes:   h.NumClasses,
				InputDim:  h.InputDim,
				Params:    sc.Params,
				Precision: precision,
				Screened:  screen,
			},
		}
		r.ids = append(r.ids, id)
	}
	if len(r.ids) == 0 {
		return nil, fmt.Errorf("mlaas: no checkpoints (*.bin) in %s", dir)
	}
	sort.Strings(r.ids)
	switch {
	case cfg.Default != "":
		if _, ok := r.entries[cfg.Default]; !ok {
			return nil, fmt.Errorf("mlaas: default model %q not in %s", cfg.Default, dir)
		}
		r.defaultID = cfg.Default
	case r.entries["clean"] != nil:
		r.defaultID = "clean"
	default:
		r.defaultID = r.ids[0]
	}
	return r, nil
}

// Len reports how many checkpoints the registry hosts.
func (r *Registry) Len() int { return len(r.ids) }

// DefaultID reports the model served by the legacy un-prefixed routes.
func (r *Registry) DefaultID() string { return r.defaultID }

// MaxBatch reports the per-request row limit shared by all hosted models.
func (r *Registry) MaxBatch() int { return r.cfg.MaxBatch }

// MaxLoaded reports the LRU hot-set capacity (resolved default included).
func (r *Registry) MaxLoaded() int { return r.cfg.MaxLoaded }

// LoadedCount reports how many models are resident right now.
func (r *Registry) LoadedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loaded
}

// ResidentBytes reports the total weight bytes held by resident models
// right now: quantized entries charge their int8 footprint, full-precision
// entries their float64 one. The LRU bound itself stays count-based
// (MaxLoaded); this is the observability hook that shows what Quantize
// buys within that count.
func (r *Registry) ResidentBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.residentBytes
}

// Models lists every hosted checkpoint in sorted id order, with current
// hot-set residency flags.
func (r *Registry) Models() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.entries[id].info)
	}
	return out
}

// Info resolves one checkpoint's metadata without loading it. id "" means
// the default model.
func (r *Registry) Info(id string) (ModelInfo, error) {
	if id == "" {
		id = r.defaultID
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return ModelInfo{}, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return e.info, nil
}

// Predict routes one batch to the model's engine, loading the checkpoint
// first if it is cold. id "" means the default model. screen asks for
// inline screening; models outside the screener's coverage return nil
// screening outcomes.
func (r *Registry) Predict(ctx context.Context, id string, x *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	if id == "" {
		id = r.defaultID
	}
	e, eng, err := r.acquire(id)
	if err != nil {
		return nil, nil, err
	}
	defer r.release(e)
	return eng.predict(ctx, x, screen)
}

// acquire returns the model's running engine, loading the checkpoint if
// needed, and pins the entry (refs) so eviction cannot close the engine
// while the caller uses it. Balance every successful acquire with release.
func (r *Registry) acquire(id string) (*regEntry, *engine, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, errEngineClosed
	}
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	e.refs++
	r.tick++
	e.lastUse = r.tick
	eng := e.eng
	r.mu.Unlock()
	if eng != nil {
		return e, eng, nil
	}

	// Cold: load under the entry's own lock so racing first requests do
	// one disk read, while requests for other models proceed untouched.
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.Lock()
	eng = e.eng
	r.mu.Unlock()
	if eng != nil {
		return e, eng, nil // a racing loader won while we waited
	}
	m, err := nn.LoadFile(e.path)
	if err != nil {
		r.release(e)
		return nil, nil, fmt.Errorf("mlaas: load model %q: %w", id, err)
	}
	if e.quantize {
		// Quantization is derived here, at load, from the full-precision
		// checkpoint — never persisted. Layers under the weight floor stay
		// fp inside the model; residency is charged at whatever the mixed
		// representation actually occupies.
		m.Quantize(0)
	}
	var screener *vp.Screener
	if e.screen {
		screener = r.cfg.Screener
	}
	eng = newEngine(m, screener, r.cfg.MaxBatch, r.cfg.MaxConcurrent)
	r.mu.Lock()
	if r.closed {
		e.refs--
		r.mu.Unlock()
		eng.close()
		return nil, nil, errEngineClosed
	}
	e.eng = eng
	e.info.Loaded = true
	e.residentBytes = m.WeightBytes()
	e.info.ResidentBytes = e.residentBytes
	r.loaded++
	r.residentBytes += e.residentBytes
	r.evictLocked()
	r.mu.Unlock()
	return e, eng, nil
}

// release unpins an acquired entry. If the hot-set overshot MaxLoaded
// while every resident model was busy, the drain is when the bound is
// restored — so eviction reruns here, not only on loads.
func (r *Registry) release(e *regEntry) {
	r.mu.Lock()
	e.refs--
	if !r.closed && r.loaded > r.cfg.MaxLoaded {
		r.evictLocked()
	}
	r.mu.Unlock()
}

// evictLocked closes least-recently-used idle engines until the hot-set is
// back within MaxLoaded. Entries with requests in flight are skipped — the
// hot-set transiently overshoots rather than failing active predicts.
// Callers hold r.mu.
func (r *Registry) evictLocked() {
	for r.loaded > r.cfg.MaxLoaded {
		var victim *regEntry
		for _, e := range r.entries {
			if e.eng == nil || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return // everything hot is busy; retry at the next load
		}
		victim.eng.close()
		victim.eng = nil
		victim.info.Loaded = false
		r.loaded--
		r.residentBytes -= victim.residentBytes
		victim.residentBytes = 0
		victim.info.ResidentBytes = 0
	}
}

// Close stops every engine and drops the hot-set. In-flight requests fail
// with 503; the registry cannot be reopened. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, e := range r.entries {
		if e.eng != nil {
			e.eng.close()
			e.eng = nil
			e.info.Loaded = false
			e.residentBytes = 0
			e.info.ResidentBytes = 0
		}
	}
	r.loaded = 0
	r.residentBytes = 0
}
