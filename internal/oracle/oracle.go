// Package oracle defines black-box access to a suspicious model. BPROM's
// threat model gives the defender nothing but confidence vectors for chosen
// inputs — no parameters, gradients, or architecture. Everything in
// internal/bprom that touches the suspicious model goes through this
// interface, so the same detector runs against an in-process model (tests,
// shadow models) or a remote MLaaS endpoint (internal/mlaas).
package oracle

import (
	"context"
	"fmt"
	"sync/atomic"

	"bprom/internal/nn"
	"bprom/internal/tensor"
)

// Oracle is a black-box classifier: inputs in, confidence vectors out.
//
// Predict accepts batches of any size: callers like the generation-batched
// CMA-ES evaluator (internal/vp) fuse a whole population's probes into one
// call. Implementations backed by a per-request transport limit (an MLaaS
// endpoint's max_batch) must chunk oversized batches internally rather than
// reject them, and may advertise the limit via BatchLimiter.
type Oracle interface {
	// Predict returns softmax confidence vectors [N, NumClasses] for a batch
	// of flattened inputs [N, InputDim].
	Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error)
	// NumClasses reports the label-space size (MLaaS APIs publish this).
	NumClasses() int
	// InputDim reports the flattened input width.
	InputDim() int
}

// BatchLimiter is optionally implemented by oracles whose backend caps the
// rows of a single transport request (mlaas.Client mirrors the endpoint's
// advertised max_batch; server-side audit oracles mirror the provider's).
// The limit is advisory — a BatchLimiter oracle still accepts arbitrarily
// large Predict batches and splits them internally — and it marks the
// oracle as self-chunking: batching callers (vp's prompted-prediction
// paths) hand such oracles one fused call covering everything, so the
// oracle's own parallel chunk fan-out sets the request width, instead of
// pre-splitting and serializing the round-trips. MaxBatch returns 0 when
// the backend advertises no limit.
type BatchLimiter interface {
	MaxBatch() int
}

// IntoPredictor is optionally implemented by oracles that can write
// confidences into storage the caller owns, so a caller that queries
// repeatedly at one width — the prompt search, once per CMA-ES generation —
// reuses one tensor instead of receiving a fresh one per call. Callers go
// through the PredictInto function, which falls back to Predict plus a
// shape-checked copy for oracles without it; wrappers (Counter, the
// tenancy's quota oracle) forward it.
//
// The contract:
//   - dst is [x.Dim(0), NumClasses]; on success every value of it has been
//     written with exactly the bits Predict would have returned.
//   - On error dst's contents are unspecified, and the backend may still be
//     writing it: a request abandoned on a cancelled context can still be
//     running in a serving engine that was handed dst. The caller must drop
//     a dst whose PredictInto failed and never use that storage again. This
//     is the rule vp applies to its pooled canvases, for the same reason.
//   - x must not be modified until PredictInto returns, and after an error
//     not at all, for the same reason.
type IntoPredictor interface {
	PredictInto(ctx context.Context, dst, x *tensor.Tensor) error
}

// PredictInto writes o's confidence rows for x into dst ([x.Dim(0),
// NumClasses]): through o's own IntoPredictor when it has one, else
// through Predict and a copy, after checking the reply's shape — a reply
// of the wrong shape is an error naming both shapes, never an index out
// of range in the caller. The IntoPredictor contract applies: after an
// error, dst must be dropped.
func PredictInto(ctx context.Context, o Oracle, dst, x *tensor.Tensor) error {
	if ip, ok := o.(IntoPredictor); ok {
		return ip.PredictInto(ctx, dst, x)
	}
	out, err := o.Predict(ctx, x)
	if err != nil {
		return err
	}
	if out.Rank() != 2 || dst.Rank() != 2 || out.Dim(0) != dst.Dim(0) || out.Dim(1) != dst.Dim(1) {
		return fmt.Errorf("oracle: reply of shape %v for %d queried rows, want %v", out.Shape(), x.Dim(0), dst.Shape())
	}
	copy(dst.Data, out.Data)
	return nil
}

// ModelOracle adapts an in-process nn.Model to the Oracle interface. It is
// safe for concurrent use: queries go through the model's stateless
// inference path, so any number of goroutines may Predict simultaneously.
type ModelOracle struct {
	model *nn.Model
}

var (
	_ Oracle        = (*ModelOracle)(nil)
	_ IntoPredictor = (*ModelOracle)(nil)
)

// NewModelOracle wraps model. The model's weights must be frozen for the
// oracle's lifetime (detection-time models are, by construction); inference
// itself is reentrant and needs no external synchronization.
func NewModelOracle(model *nn.Model) *ModelOracle {
	return &ModelOracle{model: model}
}

func (o *ModelOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := o.admit(ctx, x); err != nil {
		return nil, err
	}
	return o.model.Predict(x), nil
}

// PredictInto is Predict written into dst (IntoPredictor).
func (o *ModelOracle) PredictInto(ctx context.Context, dst, x *tensor.Tensor) error {
	if err := o.admit(ctx, x); err != nil {
		return err
	}
	if dst.Rank() != 2 || dst.Dim(0) != x.Dim(0) || dst.Dim(1) != o.model.NumClasses {
		return fmt.Errorf("oracle: destination shape %v for %d rows, want [%d %d]", dst.Shape(), x.Dim(0), x.Dim(0), o.model.NumClasses)
	}
	o.model.PredictInto(dst, x)
	return nil
}

// admit refuses a query on a done context or with inputs of the wrong width.
func (o *ModelOracle) admit(ctx context.Context, x *tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if x.Rank() != 2 || x.Dim(1) != o.model.InputDim {
		return fmt.Errorf("oracle: input shape %v, want [N %d]", x.Shape(), o.model.InputDim)
	}
	return nil
}

func (o *ModelOracle) NumClasses() int { return o.model.NumClasses }
func (o *ModelOracle) InputDim() int   { return o.model.InputDim }

// Counter wraps an Oracle and counts queries (individual samples, not
// batches). The paper reports query budgets; experiments use this to audit
// black-box cost. Safe for concurrent use.
//
// Accounting is per-row, so it is invariant to how probes are batched: a
// CMA-ES generation evaluated as one fused λ×k-row Predict costs exactly
// the λ separate k-row calls it replaces, and a client that splits a batch
// into several HTTP requests still counts it once. The serial-vs-batched
// parity tests assert this invariance end to end.
type Counter struct {
	inner   Oracle
	queries atomic.Int64
}

var (
	_ Oracle        = (*Counter)(nil)
	_ IntoPredictor = (*Counter)(nil)
)

// MaxBatch exposes the wrapped oracle's advertised per-request batch limit
// (0 when the oracle has none), so wrapping an oracle in a Counter does not
// hide it from batching callers.
func (c *Counter) MaxBatch() int {
	if bl, ok := c.inner.(BatchLimiter); ok {
		return bl.MaxBatch()
	}
	return 0
}

// NewCounter wraps inner with a query counter.
func NewCounter(inner Oracle) *Counter {
	return &Counter{inner: inner}
}

func (c *Counter) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := c.inner.Predict(ctx, x)
	if err == nil {
		c.queries.Add(int64(x.Dim(0)))
	}
	return out, err
}

// PredictInto forwards to the wrapped oracle's PredictInto (or its
// Predict and a copy) and counts the rows on success, like Predict.
func (c *Counter) PredictInto(ctx context.Context, dst, x *tensor.Tensor) error {
	err := PredictInto(ctx, c.inner, dst, x)
	if err == nil {
		c.queries.Add(int64(x.Dim(0)))
	}
	return err
}

func (c *Counter) NumClasses() int { return c.inner.NumClasses() }
func (c *Counter) InputDim() int   { return c.inner.InputDim() }

// Queries returns the number of samples sent to the oracle so far.
func (c *Counter) Queries() int64 { return c.queries.Load() }

// Add pre-charges the counter by n samples without touching the wrapped
// oracle. A resumed audit job uses it to restore the query total recorded in
// its last journal checkpoint, so the final verdict's Queries field matches
// an uninterrupted run exactly.
func (c *Counter) Add(n int64) { c.queries.Add(n) }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.queries.Store(0) }
