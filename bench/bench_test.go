package main

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"single", []float64{7}, 0.5, 7},
		{"median odd", []float64{1, 2, 9}, 0.5, 2},
		{"median even interpolates", []float64{1, 2, 4, 9}, 0.5, 3},
		{"q1 of five", []float64{10, 20, 30, 40, 50}, 0.25, 20},
		{"q3 of five", []float64{10, 20, 30, 40, 50}, 0.75, 40},
		{"q1 of four interpolates", []float64{1, 2, 3, 4}, 0.25, 1.75},
		{"p95 of 21", seq(0, 20), 0.95, 19},
		{"below range clamps", []float64{3, 5}, -1, 3},
		{"above range clamps", []float64{3, 5}, 2, 5},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	s := summarize([]float64{50, 10, 40, 20, 30}) // unsorted on purpose
	if s.N != 5 || s.Median != 30 || s.Q1 != 20 || s.Q3 != 40 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.spread(); math.Abs(got-20.0/30) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
}

func seq(lo, hi int) []float64 {
	var out []float64
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

func sp(id, parent uint64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 1, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[uint64]time.Duration
	}{
		{
			"no children: self is the whole span",
			[]span{sp(1, 0, "op", 0, 100)},
			map[uint64]time.Duration{1: 100},
		},
		{
			"sequential children",
			[]span{sp(1, 0, "op", 0, 100), sp(2, 1, "a", 10, 30), sp(3, 1, "b", 50, 90)},
			map[uint64]time.Duration{1: 40, 2: 20, 3: 40},
		},
		{
			"overlapping children count their union once",
			[]span{sp(1, 0, "op", 0, 100), sp(2, 1, "a", 10, 60), sp(3, 1, "a", 40, 80), sp(4, 1, "a", 20, 30)},
			map[uint64]time.Duration{1: 30, 2: 50, 3: 40, 4: 10},
		},
		{
			"nested children subtract only from their own parent",
			[]span{sp(1, 0, "op", 0, 100), sp(2, 1, "a", 10, 90), sp(3, 2, "b", 20, 70), sp(4, 3, "c", 30, 40)},
			map[uint64]time.Duration{1: 20, 2: 30, 3: 40, 4: 10},
		},
		{
			"a child sticking out of its parent is clipped to it",
			[]span{sp(1, 0, "op", 0, 100), sp(2, 1, "a", 80, 130), sp(3, 1, "b", -20, 10)},
			map[uint64]time.Duration{1: 70, 2: 50, 3: 30},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: self[%d] = %d, want %d", c.name, id, got[id], want)
			}
		}
	}
}

func TestBudgetPartsSumToTheOperation(t *testing.T) {
	// One operation with a sequential child, four overlapping chunk requests
	// (each with a handler below it), and a tail that adopts the call made
	// inside its interval.
	spans := []span{
		sp(1, 0, spanOp, 0, 1000),
		sp(2, 1, spanClient, 100, 500),
		sp(3, 2, spanRoundTrip, 110, 400), sp(4, 3, spanHandler, 150, 380),
		sp(5, 2, spanRoundTrip, 120, 450), sp(6, 5, spanHandler, 160, 470), // handler outlives its round trip
		sp(7, 2, spanRoundTrip, 130, 300), sp(8, 7, spanHandler, 140, 290),
		sp(9, 2, spanRoundTrip, 310, 490), sp(10, 9, spanHandler, 330, 480),
		sp(11, 1, spanCkptApp, 520, 560),
		sp(12, 1, spanClient, 820, 900), // made during the tail, recorded as its sibling
		sp(13, 1, spanTail, 800, 990),
	}
	ix := indexSpans(spans)
	if p := ix.byID[12].Parent; p != 13 {
		t.Fatalf("call inside the tail has parent %d, want the tail (13)", p)
	}
	parts, ops, total := ix.budget()
	if ops != 1 || total != 1000 {
		t.Fatalf("budget: %d ops over %d, want 1 over 1000", ops, total)
	}
	var sum time.Duration
	for _, d := range parts {
		sum += d
	}
	if diff := sum - total; diff < -2 || diff > 2 { // float rounding only
		t.Errorf("parts sum to %d, the operation took %d: %v", sum, total, parts)
	}
	// What no child covers is the operation's own: 0–100, 500–520, 560–800,
	// 990–1000.
	if parts[spanOp] != 100+20+240+10 {
		t.Errorf("op self = %d, want 370", parts[spanOp])
	}
	if parts[spanCkptApp] != 40 {
		t.Errorf("sequential child = %d, want 40", parts[spanCkptApp])
	}
	// The tail keeps 190 minus the 80 its adopted call covers.
	if parts[spanTail] != 110 {
		t.Errorf("tail self = %d, want 110", parts[spanTail])
	}
	// The four round trips jointly cover 110–490 of the first call; with the
	// call's own 20 and the adopted call's 80 that is the whole 480.
	if got := parts[spanClient] + parts[spanRoundTrip] + parts[spanHandler]; got < 478 || got > 482 {
		t.Errorf("client + round trips + handlers = %d, want 480", got)
	}

	table := ix.table(1000, 0, 1, "ns", "op self")
	if r := table.residualPct(); math.Abs(r) > 0.5 {
		t.Errorf("residual = %.2f%%, want 0", r)
	}
	table = ix.table(1100, 0, 1, "ns", "op self")
	if r := table.residualPct(); math.Abs(r-100.0/11) > 0.5 {
		t.Errorf("residual with 100 unattributed of 1100 = %.2f%%, want 9.09", r)
	}
}

func TestCompareStat(t *testing.T) {
	stat := func(better string, bound float64, values ...float64) metricStat {
		return metricStat{Unit: "ms", Better: better, Bound: bound, Values: values, summary: summarize(values)}
	}
	cases := []struct {
		name     string
		old, cur metricStat
		want     string
	}{
		{"same", stat("lower", 0.05, 100, 101, 102), stat("lower", 0.05, 100, 101, 102), verdictUnchanged},
		{"slower within bound", stat("lower", 0.05, 100, 101, 102), stat("lower", 0.05, 103, 104, 105), verdictUnchanged},
		{"slower beyond bound", stat("lower", 0.05, 100, 101, 102), stat("lower", 0.05, 110, 111, 112), verdictRegressed},
		{"faster beyond bound", stat("lower", 0.05, 100, 101, 102), stat("lower", 0.05, 90, 91, 92), verdictImproved},
		{"throughput down is a regression", stat("higher", 0.05, 1000, 1010, 1020), stat("higher", 0.05, 900, 910, 920), verdictRegressed},
		{"throughput up is an improvement", stat("higher", 0.05, 1000, 1010, 1020), stat("higher", 0.05, 1100, 1110, 1120), verdictImproved},
		{"new side too noisy to call", stat("lower", 0.05, 100, 101, 102), stat("lower", 0.05, 90, 110, 130), verdictUnresolved},
		{"old side too noisy to call", stat("lower", 0.05, 80, 100, 120), stat("lower", 0.05, 150, 151, 152), verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := compareStat(c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(p50 ...float64) *report {
		r := &report{Workloads: make(map[string]*workloadReport)}
		for _, w := range workloadOrder {
			wr := &workloadReport{EndToEnd: make(map[string]*metricStat)}
			for _, d := range endToEnd {
				st := stat(d.Better, 0.05, 10, 10.1, 10.2)
				if d.Name == "op_p50_ms" && w == "predict_gateway" {
					st = stat(d.Better, 0.05, p50...)
				}
				wr.EndToEnd[d.Name] = &st
			}
			r.Workloads[w] = wr
		}
		return r
	}
	rows, err := compareReports(mk(10, 10.1, 10.2), mk(12, 12.1, 12.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloadOrder)*len(endToEnd) {
		t.Fatalf("%d rows, want one per (workload, metric) pair = %d", len(rows), len(workloadOrder)*len(endToEnd))
	}
	for _, c := range rows {
		want := verdictUnchanged
		if c.Workload == "predict_gateway" && c.Metric == "op_p50_ms" {
			want = verdictRegressed
		}
		if c.Verdict != want {
			t.Errorf("%s on %s: %s, want %s", c.Metric, c.Workload, c.Verdict, want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the metric tables in
// this package in step, and inside the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind, name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s %s (%s, %s) does not match the benchmark's %s (%s, %s)", kind, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s (%s): bad or repeated name, or bad unit", kind, name, unit)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark defines %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for i, m := range bf.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better, perLayer[i])
	}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	wl, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// smokeInputs prepares the smoke-scale inputs once per test binary run.
func smokeInputs(t *testing.T) (root string, in *inputs) {
	t.Helper()
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	in, err = prepareInputs(context.Background(), filepath.Join(root, ".bench_build"), 7, smokeScale, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return root, in
}

// TestSmokeAllWorkloads runs every workload untraced and traced at smoke
// scale and checks the result line: correct, and every named metric present,
// finite and carrying its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	root, in := smokeInputs(t)
	for _, name := range workloadOrder {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			cfg := runConfig{Workload: name, Seed: 7, Seconds: 1, Trace: trace, Smoke: true}
			rec, err := runWorkload(context.Background(), cfg, root, mustWorkload(t, name), in, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s missing", name, trace, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace %d: %s = %v", name, trace, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s trace %d: %s has unit %q, want %q", name, trace, d.Name, v.Unit, d.Unit)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", name, d.Name, v.Value)
				}
			}
			if trace == 1 {
				if r := res.Metrics["proc.budget_residual_pct"].Value; math.Abs(r) > 10 {
					t.Errorf("%s: budget parts miss the operation time by %.1f%%, limit 10%%", name, r)
				}
				if len(rec.Spans) == 0 {
					t.Errorf("%s: traced run kept no spans", name)
				}
			}
		}
	}
}

// TestCorruptReferenceFailsTheRun flips one bit of one reference row and of
// one reference verdict — the first ones the timed section meets after
// warm-up, so set-up passes — and expects every workload to count the
// failure and report itself incorrect, which main turns into a non-zero
// exit.
func TestCorruptReferenceFailsTheRun(t *testing.T) {
	root, in := smokeInputs(t)
	if err := in.computeAuditRefs(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warm-up sends requests 0..199 of the schedule, which reach pool entries
	// 0..24 of each model; entry 25 of the first model is request 200.
	row := in.want[in.ids[0]][warmPredicts/len(in.ids)]
	row.Data[3] = math.Float64frombits(math.Float64bits(row.Data[3]) ^ 1)
	// Warm-up audits the first pair of the cycle; corrupt the second.
	k := in.audits[1]
	v := in.refs[k]
	v.Score = math.Float64frombits(math.Float64bits(v.Score) ^ 1)
	in.refs[k] = v

	for _, name := range workloadOrder {
		cfg := runConfig{Workload: name, Seed: 7, Seconds: 1, Smoke: true}
		rec, err := runWorkload(context.Background(), cfg, root, mustWorkload(t, name), in, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Result.Correct || rec.Result.Failed == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed against a corrupted reference", name, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
		}
	}
}
