package mlaas

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bprom/internal/nn"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// errEngineClosed reports a predict attempted on a stopped worker group
// (server shut down, or the registry evicted the model).
var errEngineClosed = errors.New("mlaas: model engine closed")

// predictJob is one decoded predict request waiting for a worker.
type predictJob struct {
	x *tensor.Tensor // [n, InputDim]
	// dst is caller storage ([n, NumClasses]) the job's confidence rows are
	// written into: a handler's pooled rows or an audit oracle's tensor. nil
	// (Registry.Predict) means a fresh tensor. The worker may write dst after
	// the caller gave up on the job (cancelled context, closed engine), which
	// is why a caller drops a dst whose predict failed.
	dst *tensor.Tensor
	// screen requests inline screening for this job's rows (honored only
	// when the engine carries a screener).
	screen bool
	out    chan predictResult
}

// result returns the tensor the job's rows go into: its dst, or a fresh one
// when the caller passed none.
func (j *predictJob) result(classes int) *tensor.Tensor {
	if j.dst != nil {
		return j.dst
	}
	return tensor.New(j.x.Dim(0), classes)
}

// predictResult is one job's outcome: the confidence rows, plus per-row
// screening outcomes when the job asked for them on a screening engine.
type predictResult struct {
	probs     *tensor.Tensor
	screening []vp.ScreenResult // nil when unscreened
}

// engine is the micro-batch worker group for one frozen model: a request
// queue drained by maxConcurrent workers, each coalescing whatever is
// queued at its tick (up to maxBatch rows) into a single forward pass. The
// nn inference path is reentrant, so no lock guards the model; forward
// passes themselves run on the process-wide shared tensor worker pool, so
// engines for many models compose without oversubscribing CPUs.
//
// An engine built with a screener additionally scores screening-enabled
// rows inline: the prompted view of every such row is appended to the SAME
// fused tensor as the plain rows, so one forward pass per tick serves both.
// Plain confidence rows occupy the exact positions (and therefore bits)
// they would without screening — nn.Model.Predict outputs are row-
// independent, so the appended view rows are invisible to them.
//
// A Server owns one engine in single-model mode; a Registry owns one per
// hot model and closes it on eviction.
type engine struct {
	model    *nn.Model
	screener *vp.Screener // nil: screening disabled for this model
	maxBatch int
	queue    chan *predictJob
	done     chan struct{}
	once     sync.Once
}

// newEngine starts maxConcurrent micro-batch workers over model. screener
// may be nil (no screening). The model must not be mutated afterwards; call
// close to stop the workers.
func newEngine(model *nn.Model, screener *vp.Screener, maxBatch, maxConcurrent int) *engine {
	e := &engine{
		model:    model,
		screener: screener,
		maxBatch: maxBatch,
		queue:    make(chan *predictJob, 4*maxConcurrent),
		done:     make(chan struct{}),
	}
	for i := 0; i < maxConcurrent; i++ {
		go e.worker()
	}
	return e
}

// close stops the workers; queued and future predicts fail with
// errEngineClosed. Safe to call more than once.
func (e *engine) close() {
	e.once.Do(func() { close(e.done) })
}

// predictInto enqueues one batch and waits for its confidence rows — plus
// per-row screening outcomes when screen is set and the engine screens.
// The rows are written into dst when it is non-nil ([n, NumClasses]; the
// returned tensor is then dst itself), else into a fresh tensor. On error
// a worker may still write dst and read x later, so the caller must drop
// both (the oracle.IntoPredictor contract, and rowPool's success-only rule).
// The batch must already respect maxBatch (the HTTP layer rejects larger
// requests).
func (e *engine) predictInto(ctx context.Context, x, dst *tensor.Tensor, screen bool) (*tensor.Tensor, []vp.ScreenResult, error) {
	// Check done first: select chooses randomly among ready cases, so
	// without this a post-close predict could still win the enqueue race.
	select {
	case <-e.done:
		return nil, nil, errEngineClosed
	default:
	}
	if dst != nil && (dst.Rank() != 2 || dst.Dim(0) != x.Dim(0) || dst.Dim(1) != e.model.NumClasses) {
		return nil, nil, fmt.Errorf("mlaas: destination shape %v for %d rows of %d classes", dst.Shape(), x.Dim(0), e.model.NumClasses)
	}
	job := &predictJob{x: x, dst: dst, screen: screen && e.screener != nil, out: make(chan predictResult, 1)}
	select {
	case e.queue <- job:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-e.done:
		return nil, nil, errEngineClosed
	}
	select {
	case res := <-job.out:
		return res.probs, res.screening, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-e.done:
		return nil, nil, errEngineClosed
	}
}

// worker drains the queue: it blocks for one job, greedily coalesces
// whatever else is already queued into the same forward pass (adaptive
// batching: no added latency when idle, large batches under load), and
// fans the confidence rows back out to the waiting callers.
func (e *engine) worker() {
	for {
		select {
		case <-e.done:
			return
		case job := <-e.queue:
			batch := []*predictJob{job}
			rows := job.x.Dim(0)
		coalesce:
			for rows < e.maxBatch {
				select {
				case next := <-e.queue:
					// Accepting an already-dequeued job may overshoot
					// maxBatch; since every request holds at most maxBatch
					// rows the pass stays under 2x, which the model handles
					// fine — maxBatch bounds request size, not tensor size.
					batch = append(batch, next)
					rows += next.x.Dim(0)
				default:
					break coalesce
				}
			}
			e.runBatch(batch, rows)
		}
	}
}

// runBatch runs one forward pass for the coalesced jobs and distributes the
// result rows. Screening-enabled jobs get their rows' prompted views
// appended AFTER all plain rows of the tick, so the plain block keeps the
// exact layout of the unscreened engine and the whole tick still costs one
// model.Predict. Parallelism is bounded by construction: only the engine's
// workers call this.
func (e *engine) runBatch(batch []*predictJob, rows int) {
	screenRows := 0
	for _, j := range batch {
		if j.screen {
			screenRows += j.x.Dim(0)
		}
	}
	k := e.model.NumClasses
	if screenRows == 0 && len(batch) == 1 {
		// Common uncoalesced case: the job owns the whole result.
		j := batch[0]
		out := j.result(k)
		e.model.PredictInto(out, j.x)
		j.out <- predictResult{probs: out}
		return
	}
	dim := e.model.InputDim
	x := tensor.New(rows+screenRows, dim)
	off := 0
	for _, j := range batch {
		copy(x.Data[off:off+j.x.Len()], j.x.Data)
		off += j.x.Len()
	}
	view := rows
	for _, j := range batch {
		if j.screen {
			e.screener.MaterializeInto(x, view, j.x)
			view += j.x.Dim(0)
		}
	}
	probs := e.model.Predict(x)
	row, view := 0, rows
	for _, j := range batch {
		n := j.x.Dim(0)
		out := j.result(k)
		copy(out.Data, probs.Data[row*k:(row+n)*k])
		res := predictResult{probs: out}
		if j.screen {
			res.screening = make([]vp.ScreenResult, n)
			for i := 0; i < n; i++ {
				res.screening[i] = e.screener.Score(
					probs.Data[(row+i)*k:(row+i+1)*k],
					probs.Data[(view+i)*k:(view+i+1)*k])
			}
			view += n
		}
		row += n
		j.out <- res // buffered; never blocks even if the caller is gone
	}
}
