// Command bench is the repository's benchmark: four workloads driven
// through the real serving stack on loopback TCP sockets, every timed
// output verified bit for bit against an in-process reference, end-to-end
// metrics from an untraced run and a per-layer budget from a traced one.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C bench . -seed 1                        # all workloads: 5 untraced runs + 1 traced run each
//	go run -C bench . -workload audit_remote -seed 1 -seconds 10 -trace 0
//	go run -C bench . -compare old.json new.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeconds = 10 // BENCHMARK.json's run_seconds
	setupRepeats   = 3  // set-ups per run; setup_s is their median
	fullRuns       = 5  // untraced runs per workload in the all-workloads mode
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.Workload, "workload", "", "run this one workload once and print its result line (default: the all-workloads report)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "seconds of measurement per run")
	flag.IntVar(&cfg.Trace, "trace", 0, "1: traced run (per-layer metrics and budget table); 0: untraced run (end-to-end metrics)")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny inputs and one set-up: seconds in total, for tests")
	flag.StringVar(&cfg.Out, "out", "", "also write the run's record (report, or result with spans) to this file")
	compareMode := flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *compareMode:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case cfg.Workload != "":
		rec, err := runOne(ctx, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !rec.Result.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runAll(ctx, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runConfig is one invocation's flags.
type runConfig struct {
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Smoke    bool   `json:"smoke,omitempty"`
	Out      string `json:"-"`
}

// result is the line every single-workload run ends its standard output
// with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance pins where and how a run was made.
type provenance struct {
	Seed       uint64 `json:"seed"`
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// The load shape, frozen in the benchmark.
	Seconds      int `json:"seconds"`
	PredictRows  int `json:"predict_rows_per_request"`
	PredictPool  int `json:"predict_request_pool"`
	ZooModels    int `json:"zoo_models"`
	AuditCycle   int `json:"audit_cycle"`
	SetupRepeats int `json:"setup_repeats"`
}

// record is what -out receives from a single-workload run.
type record struct {
	Provenance provenance  `json:"provenance"`
	Config     runConfig   `json:"config"`
	Workers    int         `json:"load_goroutines"`
	Result     result      `json:"result"`
	Latency    summary     `json:"op_latency_ms"` // median and quartiles over the untraced phase's operations
	SetupS     []float64   `json:"setup_s_samples"`
	Budget     budgetTable `json:"budget,omitzero"`
	Spans      []span      `json:"spans,omitempty"`
}

// checkoutRoot is the directory the benchmark may write in: the nearest
// ancestor of the working directory that holds BENCHMARK.json.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json in %s or above it: run from inside the repository", dir)
		}
	}
}

func newProvenance(cfg runConfig, root string) provenance {
	p := provenance{
		Seed: cfg.Seed, GitCommit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: cfg.Seconds, PredictRows: predictRows, PredictPool: predictPool,
		ZooModels: len(zooIDs()), AuditCycle: len(auditTargets), SetupRepeats: setupRepeats,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// runOne prepares the inputs for cfg.Seed and runs one workload once on
// them.
func runOne(ctx context.Context, cfg runConfig, out io.Writer) (*record, error) {
	wl, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: want at least 1", cfg.Seconds)
	}
	root, err := checkoutRoot()
	if err != nil {
		return nil, err
	}
	cache := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	sc := fullScale
	if cfg.Smoke {
		sc = smokeScale
	}
	in, err := prepareInputs(ctx, cache, cfg.Seed, sc, cfg.Smoke, wl.audits())
	if err != nil {
		return nil, err
	}
	return runWorkload(ctx, cfg, root, wl, in, out)
}

// runWorkload runs wl once on in — set-up, untraced load, and with
// cfg.Trace the traced phase — verifies it, and prints the metric table
// followed by the result line.
func runWorkload(ctx context.Context, cfg runConfig, root string, wl workload, in *inputs, out io.Writer) (*record, error) {
	workDir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	repeats := setupRepeats
	if cfg.Smoke {
		repeats = 1
	}
	if wl.audits() && in.refs == nil {
		if err := in.computeAuditRefs(ctx); err != nil {
			return nil, err
		}
	}
	e := &env{in: in, workDir: workDir}
	if cfg.Trace != 0 {
		e.tr = newTracer()
	}

	// Set up several times and keep the last: setup_s is the median.
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := wl.setup(ctx, e); err != nil {
			_ = wl.teardown()
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < repeats-1 {
			if err := wl.teardown(); err != nil {
				return nil, fmt.Errorf("%s teardown: %w", cfg.Workload, err)
			}
		}
	}

	dur := time.Duration(cfg.Seconds) * time.Second
	if cfg.Trace != 0 {
		dur /= 2 // the other half is the traced phase
	}
	base := drive(ctx, wl.workers(), dur, wl.op)
	rec := &record{
		Provenance: newProvenance(cfg, root),
		Config:     cfg,
		Workers:    wl.workers(),
		Latency:    summarize(base.latMs()),
		SetupS:     setups,
	}
	attempted, failed, firstErr := base.attempted, base.failed, base.firstErr

	m := make(metrics)
	defs := endToEnd
	if cfg.Trace == 0 {
		if base.ok() > 0 {
			m.set("setup_s", median(setups))
			m.set("rows_per_s", base.rowsPerSec())
			m.set("op_p50_ms", base.p50ms(wl.kinds()))
			m.set("allocs_per_op", float64(base.mallocs)/float64(base.ok()))
			m.set("alloc_kb_per_op", float64(base.allocBytes)/1024/float64(base.ok()))
		}
	} else {
		defs = perLayer
		if err := kernelProbes(in, m); err != nil {
			return nil, err
		}
		if wl.audits() {
			if err := auditProbes(in, m); err != nil {
				return nil, err
			}
		}
		tp, err := wl.traced(ctx, dur, base, m)
		if err != nil {
			_ = wl.teardown()
			return nil, err
		}
		attempted += tp.attempted
		failed += tp.failed
		if firstErr == nil {
			firstErr = tp.firstErr
		}
		rec.Spans = e.tr.snapshot()
		if base.ok() > 0 && tp.ok() > 0 {
			rec.Budget = tracedMetrics(m, wl.audits(), base, tp, rec.Spans)
		}
	}

	if err := wl.teardown(); err != nil {
		return nil, fmt.Errorf("%s teardown: %w", cfg.Workload, err)
	}
	checkErr := wl.check(m)
	if checkErr != nil {
		failed = max(failed, 1)
	}

	vals, err := m.render(defs, cfg.Trace == 0 && failed == 0)
	if err != nil {
		return nil, err
	}
	rec.Result = result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: vals}

	fmt.Fprintf(out, "%s  seed %d  %d s  trace %d  (%s, %d cpus, %s)\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace,
		rec.Provenance.GoVersion, rec.Provenance.NumCPU, rec.Provenance.CPU)
	fmt.Fprintf(out, "  operations: %d attempted, %d failed; latency ms: median %.3f (q1 %.3f, q3 %.3f, n %d)\n",
		attempted, failed, rec.Latency.Median, rec.Latency.Q1, rec.Latency.Q3, rec.Latency.N)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
	if cfg.Trace != 0 && rec.Budget.Ops > 0 {
		rec.Budget.print(out, cfg.Workload)
	}
	if firstErr != nil {
		fmt.Fprintln(out, "  first failure:", firstErr)
	}
	if checkErr != nil {
		fmt.Fprintln(out, "  verification failed:", checkErr)
	}
	if cfg.Out != "" {
		if err := writeJSON(cfg.Out, rec); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return rec, nil
}

// tracedMetrics fills the per-layer metrics that come from the traced
// phase's spans and returns the phase's budget table.
func tracedMetrics(m metrics, audit bool, base, tp phase, spans []span) budgetTable {
	ix := indexSpans(spans)
	narrow := time.Duration(m["nn.predict_narrow_us"] * float64(time.Microsecond))
	wide := time.Duration(m["nn.predict_wide_us"] * float64(time.Microsecond))
	audits := 0
	opLabel := "load generator self (schedule, verification)"
	unit, unitName := time.Microsecond, "us"
	if audit {
		audits = tp.ok()
		opLabel = "prompt search self (canvas fill, loss, sep-CMA-ES update)"
		unit, unitName = time.Millisecond, "ms"
	}
	forward := ix.wireMetrics(m, audits, narrow, wide)

	opMean := time.Duration(mean(tp.latMs()) * float64(time.Millisecond))
	table := ix.table(opMean, forward, unit, unitName, opLabel)
	if audits > 0 {
		parts, _, _ := ix.budget()
		m.set("vp.search_self_ms_per_gen", msec(parts[spanOp])/float64(tp.generations))
		m.set("bprom.tail_ms", meanDur(ix.named(spanTail)))
		if enc := ix.named(spanCkptEnc); len(enc) > 0 {
			m.set("bprom.ckpt_encode_us", meanDur(enc)*1000)
		}
	}

	lat := base.latMs()
	m.set("proc.op_p95_ms", quantile(lat, 0.95))
	m.set("proc.op_p99_ms", quantile(lat, 0.99))
	m.set("proc.gc_cycles", float64(base.gcCycles))
	m.set("proc.gc_pause_ms", msec(base.gcPause))
	m.set("proc.peak_rss_mb", peakRSSMB())
	m.set("proc.trace_overhead_pct", 100*(1-tp.rowsPerSec()/base.rowsPerSec()))
	m.set("proc.budget_residual_pct", table.residualPct())
	return table
}

// meanDur is the mean duration of spans in milliseconds.
func meanDur(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range spans {
		total += s.dur()
	}
	return msec(total) / float64(len(spans))
}

// peakRSSMB reads the process's peak resident set from /proc (0 elsewhere).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
