package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of comparing one (metric, workload) pair across two reports.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare's output.
type comparison struct {
	Workload, Metric string
	Old, New         metricStat
	// Change is how much worse (positive) or better (negative) the new
	// median is, as a share of the old one, with the metric's direction
	// already applied.
	Change  float64
	Verdict string
}

// compareStat applies the metric's bound to a pair of run sets. A pair whose
// own run-to-run spread (either side's interquartile range over its median)
// is wider than the bound cannot carry a verdict in either direction: it is
// unresolved, not unchanged.
func compareStat(old, cur metricStat) (change float64, verdict string) {
	if old.Median == 0 {
		return 0, verdictUnresolved
	}
	change = (cur.Median - old.Median) / old.Median
	if old.Better == "higher" {
		change = -change
	}
	switch {
	case old.spread() > old.Bound || cur.spread() > old.Bound:
		return change, verdictUnresolved
	case change > old.Bound:
		return change, verdictRegressed
	case change < -old.Bound:
		return change, verdictImproved
	}
	return change, verdictUnchanged
}

// compareReports lines up every (workload, end-to-end metric) pair of old
// with new. The bounds are old's: the baseline fixes what counts as a
// regression.
func compareReports(old, cur *report) ([]comparison, error) {
	var out []comparison
	for _, name := range workloadOrder {
		ow, nw := old.Workloads[name], cur.Workloads[name]
		if ow == nil || nw == nil {
			return nil, fmt.Errorf("workload %s is missing from one of the reports", name)
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if o == nil || n == nil {
				return nil, fmt.Errorf("%s on %s is missing from one of the reports", d.Name, name)
			}
			c := comparison{Workload: name, Metric: d.Name, Old: *o, New: *n}
			c.Change, c.Verdict = compareStat(*o, *n)
			out = append(out, c)
		}
	}
	return out, nil
}

// compareFiles prints the comparison of two report files and reports whether
// any pair regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	load := func(path string) (*report, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	old, err := load(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := load(newPath)
	if err != nil {
		return false, err
	}
	rows, err := compareReports(old, cur)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d) vs %s (commit %s, seed %d)\n",
		oldPath, old.Provenance.GitCommit, old.Provenance.Seed, newPath, cur.Provenance.GitCommit, cur.Provenance.Seed)
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %-6s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "new median", "unit", "new/base", "spread", "spread'", "bound", "verdict")
	counts := make(map[string]int)
	for _, c := range rows {
		counts[c.Verdict]++
		direction := "worse"
		if c.Change < 0 {
			direction = "better"
		}
		fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %-6s %8.4f %6.1f%% %6.1f%% %5.0f%%  %s (%.1f%% %s; %s is better)\n",
			c.Workload, c.Metric, c.Old.Median, c.New.Median, c.Old.Unit, c.New.Median/c.Old.Median,
			100*c.Old.spread(), 100*c.New.spread(), 100*c.Old.Bound, c.Verdict, 100*math.Abs(c.Change), direction, c.Old.Better)
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved (spread wider than the bound)\n",
		counts[verdictImproved], counts[verdictUnchanged], counts[verdictRegressed], counts[verdictUnresolved])
	return counts[verdictRegressed] > 0, nil
}
