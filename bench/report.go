package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The all-workloads mode: every workload in a process of its own — so tensor
// pools, GC state, resident set and set-up never leak from one to the next —
// fullRuns untraced runs for the end-to-end medians with their quartiles,
// then one traced run for the per-layer metrics and the budget table.

// report is the all-workloads mode's -out file, and -compare's input.
type report struct {
	Provenance provenance                 `json:"provenance"`
	Runs       int                        `json:"untraced_runs_per_workload"`
	Claim      *string                    `json:"claim"` // a benchmark-defining change claims no gain
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why       string                 `json:"why"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*metricStat `json:"end_to_end"`
	PerLayer  map[string]value       `json:"per_layer"`
	Budget    budgetTable            `json:"budget,omitzero"`
}

// metricStat is one end-to-end metric over a workload's untraced runs.
type metricStat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	summary
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// the regression bound of each end-to-end metric.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) bound(metric string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}

func runAll(ctx context.Context, cfg runConfig, out io.Writer) (ok bool, err error) {
	root, err := checkoutRoot()
	if err != nil {
		return false, err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	runs := fullRuns
	if cfg.Smoke {
		runs = 2
	}
	rep := &report{Runs: runs, Workloads: make(map[string]*workloadReport)}
	ok = true
	for _, name := range workloadOrder {
		wr := &workloadReport{Why: workloadWhy[name], EndToEnd: make(map[string]*metricStat)}
		rep.Workloads[name] = wr
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = &metricStat{Unit: d.Unit, Better: d.Better, Bound: bf.bound(d.Name)}
		}
		for i := 0; i <= runs; i++ {
			child := cfg
			child.Workload, child.Trace = name, 0
			if i == runs {
				child.Trace = 1
			}
			rec, cerr := runChild(ctx, self, filepath.Join(root, ".bench_build"), child, out)
			if cerr != nil {
				return false, fmt.Errorf("%s run %d: %w", name, i, cerr)
			}
			rep.Provenance = rec.Provenance
			wr.Attempted += rec.Result.Attempted
			wr.Failed += rec.Result.Failed
			ok = ok && rec.Result.Correct
			if child.Trace == 1 {
				wr.PerLayer, wr.Budget = rec.Result.Metrics, rec.Budget
				continue
			}
			for mname, v := range rec.Result.Metrics {
				st := wr.EndToEnd[mname]
				st.Values = append(st.Values, v.Value)
			}
		}
		for _, st := range wr.EndToEnd {
			st.summary = summarize(st.Values)
		}
	}

	fmt.Fprintf(out, "\n=== report: seed %d, %d untraced runs + 1 traced run per workload, %d s each ===\n", cfg.Seed, runs, cfg.Seconds)
	for _, name := range workloadOrder {
		wr := rep.Workloads[name]
		fmt.Fprintf(out, "\n%s — %d operations attempted, %d failed\n", name, wr.Attempted, wr.Failed)
		fmt.Fprintf(out, "  %-20s %14s %14s %14s  %-6s %7s %6s\n", "end-to-end", "median", "q1", "q3", "unit", "spread", "bound")
		for _, d := range endToEnd {
			st := wr.EndToEnd[d.Name]
			fmt.Fprintf(out, "  %-20s %14.4f %14.4f %14.4f  %-6s %6.1f%% %5.0f%%\n", d.Name, st.Median, st.Q1, st.Q3, st.Unit, 100*st.spread(), 100*st.Bound)
		}
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-34s %16.4f %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
		if wr.Budget.Ops > 0 {
			wr.Budget.print(out, name)
		}
	}
	if cfg.Out != "" {
		if err := writeJSON(cfg.Out, rep); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild re-executes this binary for one single-workload run, passes its
// table through, and returns its record (handed over in a file under dir).
func runChild(ctx context.Context, self, dir string, cfg runConfig, out io.Writer) (*record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	recFile, err := os.CreateTemp(dir, "record-*.json")
	if err != nil {
		return nil, err
	}
	recFile.Close()
	defer os.Remove(recFile.Name())
	args := []string{
		"-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.Itoa(cfg.Seconds), "-trace", strconv.Itoa(cfg.Trace), "-out", recFile.Name(),
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	// Pass the child's table through without its machine-readable last line.
	text := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		fmt.Fprintln(out, text[:i])
	}
	raw, err := os.ReadFile(recFile.Name())
	if err != nil || len(raw) == 0 {
		return nil, fmt.Errorf("child wrote no record (%v)", runErr)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	rec.Spans = nil
	return &rec, nil
}
