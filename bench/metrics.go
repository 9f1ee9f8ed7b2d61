package main

import (
	"fmt"
	"math"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (TestBenchmarkJSONMatchesDefs keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees, per workload. failed_share is
// not among them only because the result line carries attempted and failed
// themselves (and a gated metric may never read 0).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
}

// perLayer is measured by the traced run. A metric whose layer is not on a
// workload's path reads 0 there. README.md says how each is measured and
// which end-to-end metric on which workload it should move.
var perLayer = []metricDef{
	{"tensor.matmul_fp64_us", "us", "lower"},
	{"tensor.qmatmul_int8_us", "us", "lower"},
	{"tensor.matmul_mflop", "count", "lower"},

	{"nn.predict_narrow_us", "us", "lower"},
	{"nn.predict_wide_us", "us", "lower"},
	{"nn.predict_wide_int8_us", "us", "lower"},
	{"nn.predict_wide_alloc_kb", "KiB", "lower"},

	{"oracle.calls_per_audit", "count", "lower"},
	{"oracle.rows_per_audit", "count", "lower"},
	{"oracle.busy_ms_per_audit", "ms", "lower"},

	{"vp.search_self_ms_per_gen", "ms", "lower"},
	{"cmaes.update_us_per_gen", "us", "lower"},

	{"bprom.inspect_local_s", "s", "lower"},
	{"bprom.tail_ms", "ms", "lower"},
	{"bprom.ckpt_encode_us", "us", "lower"},
	{"bprom.ckpt_bytes", "B", "lower"},
	{"bprom.detector_load_ms", "ms", "lower"},
	{"bprom.train_s", "s", "lower"},
	{"meta.forest_score_us", "us", "lower"},

	{"jobstore.ckpt_append_us", "us", "lower"},
	{"jobstore.ckpt_append_p95_us", "us", "lower"},
	{"jobstore.journal_kb_per_audit", "KiB", "lower"},
	{"jobstore.compactions", "count", "lower"},
	{"jobstore.replay_ms", "ms", "lower"},

	{"audit.submit_ms", "ms", "lower"},
	{"audit.queue_wait_ms", "ms", "lower"},
	{"audit.run_ms", "ms", "lower"},
	{"audit.manager_overhead_ms", "ms", "lower"},
	{"audit.poll_requests_per_audit", "count", "lower"},
	{"audit.remote_over_local", "ratio", "lower"},

	{"mlaas.client.self_us_per_req", "us", "lower"},
	{"mlaas.client.req_kb", "KiB", "lower"},
	{"mlaas.client.resp_kb", "KiB", "lower"},
	{"mlaas.client.requests_per_audit", "count", "lower"},
	{"mlaas.client.inflight_max", "count", "higher"},

	{"mlaas.server.handler_us", "us", "lower"},
	{"mlaas.server.wire_self_us", "us", "lower"},
	{"mlaas.server.http_stack_us", "us", "lower"},

	{"mlaas.gateway.self_us_per_req", "us", "lower"},
	{"mlaas.gateway.node_rtt_us", "us", "lower"},
	{"mlaas.gateway.http_stack_us", "us", "lower"},
	{"mlaas.gateway.hop_over_direct", "ratio", "lower"},
	{"mlaas.gateway.node_share_max", "ratio", "lower"},

	{"mlaas.registry.cold_load_ms", "ms", "lower"},
	{"mlaas.registry.resident_mb", "MB", "lower"},

	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.op_p95_ms", "ms", "lower"},
	{"proc.op_p99_ms", "ms", "lower"},
	{"proc.trace_overhead_pct", "%", "lower"},
	{"proc.budget_residual_pct", "%", "lower"},
}

// metrics is one run's metric values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// value is a metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render turns m into the result line's metrics object for defs, failing on
// a value that is missing where required or not finite. A per-layer metric
// that was not measured on this workload is reported as 0.
func (m metrics) render(defs []metricDef, required bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok && !definedIn(name, endToEnd) && !definedIn(name, perLayer) {
			return nil, fmt.Errorf("metric %s is set but not defined", name)
		}
	}
	return out, nil
}

func definedIn(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
