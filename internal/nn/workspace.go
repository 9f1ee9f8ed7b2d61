package nn

import (
	"math"
	"sync"

	"bprom/internal/tensor"
)

// predictBlock bounds the rows of one inference pass. Every layer is
// row-independent in inference mode (the micro-batch engine already
// coalesces unrelated requests into one pass), so a batch of any width is
// run as independent row blocks and the split is bitwise invisible. A block's
// activations stay cache-resident instead of streaming a whole generation's
// feature maps through memory, and — the one-level rule — blocks are the only
// parallelism: a batch wider than one block is spread over the shared worker
// pool by block, and nothing inside a block dispatches again, because its
// layers call the tensor package's Serial* kernels. A batch of at most
// predictBlock rows is one block and runs entirely on the calling goroutine;
// a narrow request gets its parallelism from the requests running beside it,
// not from per-layer fork-joins that would cost more in wake-ups than a
// block's kernels take.
const predictBlock = 16

// inferer is Layer.Infer inside a planned pass, implemented by the layers of
// this package: outputs and scratch come from ws and are only valid until
// the pass ends, and the kernels are the Serial* ones. A nil ws means fresh
// tensors and pool-dispatching kernels, which is how the same code serves
// the public Infer methods.
type inferer interface {
	infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor
}

// workspace is the activation arena of one inference pass over one row
// block: layer outputs, conv and matmul scratch and residual joins are
// bump-allocated from buf and their headers recycled, so a warm pass
// allocates nothing. A pass that outgrows buf gets the excess as one-off
// allocations and reset then sizes buf to what the pass asked for, so the
// arena is sized once per (model, block rows). It belongs to one goroutine
// at a time. Nothing is zeroed between passes — every kernel writes its
// whole output.
type workspace struct {
	buf  []float64
	off  int              // floats of buf handed out in this pass
	need int              // floats asked for in this pass
	hdrs []*tensor.Tensor // hdrs[:used] are handed out in this pass
	used int
	dims []int // shape scratch for the block views

	// last is the activation the pass produced most recently. Layers form a
	// chain, so only the next layer reads it and that layer may overwrite it
	// in place; Residual clears it to keep its input for the join.
	last *tensor.Tensor
}

// poisonArenas is set by tests only. Arena memory is then NaN whenever it is
// handed out again, so a kernel that relies on zeroed output, or a result
// still pointing into the arena after its pass, changes bits.
var poisonArenas bool

func poison(buf []float64) {
	if poisonArenas {
		nan := math.NaN()
		for i := range buf {
			buf[i] = nan
		}
	}
}

// reset ends a pass: everything handed out so far is dead.
func (ws *workspace) reset() {
	if ws.need > len(ws.buf) {
		ws.buf = make([]float64, ws.need)
	}
	ws.off, ws.need, ws.used, ws.last = 0, 0, 0, nil
	poison(ws.buf)
}

// isSerial reports whether the caller is inside a planned pass, where every
// kernel runs on the block's goroutine.
func (ws *workspace) isSerial() bool { return ws != nil }

// header returns a recycled tensor header.
func (ws *workspace) header() *tensor.Tensor {
	if ws.used == len(ws.hdrs) {
		ws.hdrs = append(ws.hdrs, new(tensor.Tensor))
	}
	h := ws.hdrs[ws.used]
	ws.used++
	return h
}

// tensor returns an activation of the given shape with undefined contents,
// and makes it the pass's latest.
func (ws *workspace) tensor(shape ...int) *tensor.Tensor {
	if ws == nil {
		return tensor.New(shape...)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	ws.need += n
	var data []float64
	if ws.off+n <= len(ws.buf) {
		data = ws.buf[ws.off : ws.off+n : ws.off+n]
		ws.off += n
	} else {
		data = make([]float64, n)
		poison(data)
	}
	t := ws.header()
	t.Rebind(data, shape...)
	ws.last = t
	return t
}

// wrap views data the pass does not own under shape.
func (ws *workspace) wrap(data []float64, shape ...int) *tensor.Tensor {
	t := ws.header()
	t.Rebind(data, shape...)
	return t
}

// reshape views x under a new shape; the view inherits x's place as latest.
func (ws *workspace) reshape(x *tensor.Tensor, shape ...int) *tensor.Tensor {
	if ws == nil {
		return x.Reshape(shape...)
	}
	t := ws.wrap(x.Data, shape...)
	if x == ws.last {
		ws.last = t
	}
	return t
}

// writable returns x itself when the pass may overwrite it, else a copy.
func (ws *workspace) writable(x *tensor.Tensor) *tensor.Tensor {
	if ws != nil && x == ws.last {
		return x
	}
	out := ws.tensor(x.Shape()...)
	copy(out.Data, x.Data)
	return out
}

// keep withdraws the latest activation from in-place reuse.
func (ws *workspace) keep() {
	if ws != nil {
		ws.last = nil
	}
}

// run chains layers over x. A Layer from outside this package allocates its
// own output through the public Infer.
func (ws *workspace) run(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	h := x
	for _, l := range layers {
		if p, ok := l.(inferer); ok {
			h = p.infer(ws, h)
		} else {
			h = l.Infer(h)
		}
	}
	return h
}

// getWorkspace takes a reset workspace from the model's pool. Callers reset
// it after every pass and Put it back when done; one abandoned by a panic is
// simply dropped.
func (m *Model) getWorkspace() *workspace {
	ws, ok := m.workspaces.Get().(*workspace)
	if !ok {
		ws = new(workspace)
	}
	return ws
}

// forBlocks is the one inference driver: it runs layers over x one row block
// at a time (see predictBlock) and hands emit each block's first row index
// and output. The output lives in the pass's arena, so emit copies out what
// it keeps; emit runs concurrently for different blocks. A single block runs
// inline on the caller (Pool.For never hands off n <= grain).
func (m *Model) forBlocks(layers []Layer, x *tensor.Tensor, emit func(r0 int, h *tensor.Tensor)) {
	n := x.Dim(0)
	per := x.Len() / n
	blocks := (n + predictBlock - 1) / predictBlock
	tensor.ParallelFor(blocks, 1, func(lo, hi int) {
		ws := m.getWorkspace()
		for b := lo; b < hi; b++ {
			r0 := b * predictBlock
			r1 := min(r0+predictBlock, n)
			ws.dims = append(ws.dims[:0], x.Shape()...)
			ws.dims[0] = r1 - r0
			emit(r0, ws.run(layers, ws.wrap(x.Data[r0*per:r1*per], ws.dims...)))
			ws.reset()
		}
		m.workspaces.Put(ws)
	})
}

// gather runs forBlocks and returns the blocks' outputs as one fresh
// [N, width] tensor.
func (m *Model) gather(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	var (
		alloc sync.Once // the width is only known once a block has run
		out   *tensor.Tensor
	)
	m.forBlocks(layers, x, func(r0 int, h *tensor.Tensor) {
		width := h.Len() / h.Dim(0)
		alloc.Do(func() { out = tensor.New(n, width) })
		copy(out.Data[r0*width:], h.Data)
	})
	return out
}
