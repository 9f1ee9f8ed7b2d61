package main

import (
	"fmt"
	"runtime"
	"time"

	"bprom/internal/cmaes"
	"bprom/internal/meta"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Direct probes: a layer's public function called alone, at exactly the
// shapes the workloads send it. They give the budget tables the one part
// that cannot be timed from outside the server (the forward pass inside the
// engine) and give a kernel change a number of its own.

const (
	wideRows   = 432 // one fused CMA-ES generation: λ=18 candidates × 24 samples
	probeReps  = 30
	cmaesGens  = 40
	forestReps = 2000
)

// timeMedian runs f reps times after one warm-up call and returns the
// median wall time of a call.
func timeMedian(reps int, f func()) time.Duration {
	f()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// kernelProbes times the tensor and nn layers on every workload: they need
// nothing but a zoo model.
func kernelProbes(in *inputs, m metrics) error {
	model := in.models["clean"]
	r := rng.New(in.seed).Split("probes")

	// The widest Dense layer of the zoo's architecture, at generation width.
	var dense *nn.Dense
	for _, l := range model.Layers {
		if d, ok := l.(*nn.Dense); ok && (dense == nil || d.W.Value.Len() > dense.W.Value.Len()) {
			dense = d
		}
	}
	if dense == nil {
		return fmt.Errorf("probes: zoo model has no Dense layer")
	}
	k, n := dense.W.Value.Dim(0), dense.W.Value.Dim(1)
	x := tensor.New(wideRows, k)
	r.Uniform(x.Data, 0, 1)
	dst := tensor.New(wideRows, n)
	q := tensor.QuantizePerCol(dense.W.Value)
	m.set("tensor.matmul_fp64_us", usec(timeMedian(probeReps, func() { tensor.MatMulInto(dst, x, dense.W.Value) })))
	m.set("tensor.qmatmul_int8_us", usec(timeMedian(probeReps, func() { tensor.QMatMulInto(dst, x, q) })))
	m.set("tensor.matmul_mflop", 2*float64(wideRows)*float64(k)*float64(n)/1e6)

	narrow := in.reqs[0]
	wide := tensor.New(wideRows, model.InputDim)
	r.Uniform(wide.Data, 0, 1)
	m.set("nn.predict_narrow_us", usec(timeMedian(probeReps*10, func() { model.Predict(narrow) })))
	m.set("nn.predict_wide_us", usec(timeMedian(probeReps, func() { model.Predict(wide) })))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeReps; i++ {
		model.Predict(wide)
	}
	runtime.ReadMemStats(&after)
	m.set("nn.predict_wide_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024/probeReps)

	// Quantization is derived at load and makes a model inference-only, so
	// it gets its own copy from disk.
	qm, err := nn.LoadFile(in.zooDir + "/clean.bin")
	if err != nil {
		return err
	}
	qm.Quantize(0)
	m.set("nn.predict_wide_int8_us", usec(timeMedian(probeReps, func() { qm.Predict(wide) })))
	return nil
}

// auditProbes times the search and scoring layers an audit runs besides the
// forward pass.
func auditProbes(in *inputs, m metrics) error {
	// sep-CMA-ES bookkeeping alone, at the prompt's θ dimension: a constant
	// objective leaves sampling, selection and the distribution update.
	if len(in.det.Shadows) == 0 || in.det.Shadows[0].Prompt == nil {
		return fmt.Errorf("probes: detector artifact carries no shadow prompt")
	}
	dim := in.det.Shadows[0].Prompt.Dim()
	zeros := func(cands [][]float64) []float64 { return make([]float64, len(cands)) }
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = 0.5
	}
	d := timeMedian(5, func() {
		_, _ = cmaes.MinimizeSep(nil, x0, cmaes.Options{Sigma0: 0.15, MaxIters: cmaesGens, Lo: 0, Hi: 1, Evaluate: zeros}, rng.New(in.seed))
	})
	m.set("cmaes.update_us_per_gen", usec(d)/cmaesGens)

	// The detector's forest is private; one trained on the same shadow
	// features with the same defaults has the same shape and cost.
	var rows [][]float64
	var labels []bool
	for _, s := range in.det.Shadows {
		rows = append(rows, s.Features)
		labels = append(labels, s.Backdoor)
	}
	forest, err := meta.Train(rows, labels, meta.TrainConfig{}, rng.New(in.seed))
	if err != nil {
		return err
	}
	d = timeMedian(5, func() {
		for i := 0; i < forestReps; i++ {
			_, _ = forest.Score(rows[i%len(rows)])
		}
	})
	m.set("meta.forest_score_us", usec(d)/forestReps)
	m.set("bprom.inspect_local_s", mean(in.refSeconds))
	m.set("bprom.train_s", in.trainS)
	return nil
}
