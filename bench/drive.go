package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs one workload operation for load-generator goroutine
// worker; seq numbers operations across all workers from 0. It returns the
// model rows the operation had served and an error if the operation failed
// or its output did not verify.
type opFunc func(ctx context.Context, worker, seq int) (rows int64, err error)

// opRecord is one successful operation: when it ran, relative to the start
// of its phase, what it served, and its number in the schedule.
type opRecord struct {
	start, end time.Duration
	rows       int64
	seq        int
}

// phase is what one timed section of closed-loop load produced.
type phase struct {
	window            time.Duration // how long operations were issued for
	attempted, failed int
	ops               []opRecord // successful operations only
	firstErr          error
	generations       int // CMA-ES generations completed (traced audit phases only)

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func (p phase) ok() int { return p.attempted - p.failed }

// latMs is the successful operations' latencies in milliseconds, sorted.
func (p phase) latMs() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = msec(o.end - o.start)
	}
	sort.Float64s(out)
	return out
}

// rowsPerSec is the model rows served per second of the window. Every load
// goroutine is busy from the window's start to its end, so the window is
// the steady state; an operation still running when it closes is credited
// the share of its rows that its share of time inside the window stands
// for. (Timing to the last operation's return instead would add a tail in
// which some goroutines idle — up to a whole audit long, and a different
// length on every run.)
func (p phase) rowsPerSec() float64 {
	credited := 0.0
	for _, o := range p.ops {
		switch {
		case o.end <= p.window:
			credited += float64(o.rows)
		case o.start < p.window:
			credited += float64(o.rows) * float64(p.window-o.start) / float64(o.end-o.start)
		}
	}
	return credited / p.window.Seconds()
}

// p50ms is the median operation latency in milliseconds, taken over the
// schedule's cycles: the schedule repeats kinds distinct operations (8
// models; 2 audit pairs) whose costs differ, concurrent audits trade
// latency with one another from one operation to the next, and an audit run
// completes only a dozen operations — so a plain median would move with how
// many of each kind the window happened to hold. Each complete cycle
// contributes the mean latency of its operations, and the median of those
// means is reported. A run too short for one complete cycle reports the
// mean of what it has.
func (p phase) p50ms(kinds int) float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, o := range p.ops {
		sums[o.seq/kinds] += msec(o.end - o.start)
		counts[o.seq/kinds]++
	}
	var cycles []float64
	for c, n := range counts {
		if n == kinds {
			cycles = append(cycles, sums[c]/float64(n))
		}
	}
	if len(cycles) == 0 {
		return mean(p.latMs())
	}
	return median(cycles)
}

// drive runs a closed loop: workers goroutines each issue their next
// operation as soon as the previous one returns, and stop issuing once dur
// has elapsed (operations in flight complete).
func drive(ctx context.Context, workers int, dur time.Duration, op opFunc) phase {
	type local struct {
		ops      []opRecord
		n, bad   int
		firstErr error
	}
	locals := make([]local, workers)
	var next atomic.Int64
	var wg sync.WaitGroup

	// Start from a collected heap, so what the section allocates — not what
	// set-up left behind — decides when its first GC cycle runs.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := &locals[w]
			for time.Since(start) < dur && ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				t0 := time.Since(start)
				rows, err := op(ctx, w, seq)
				t1 := time.Since(start)
				l.n++
				if err != nil {
					l.bad++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.ops = append(l.ops, opRecord{start: t0, end: t1, rows: rows, seq: seq})
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	p := phase{
		window:     dur,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	for _, l := range locals {
		p.attempted += l.n
		p.failed += l.bad
		p.ops = append(p.ops, l.ops...)
		if p.firstErr == nil {
			p.firstErr = l.firstErr
		}
	}
	return p
}
