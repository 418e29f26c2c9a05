package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json carries the same list; a test
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the numbers a user of the system sees, measured with tracing
// off. Bound is the share of the parent's median a metric may worsen by.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"batches_per_s", "1/s", "higher", 0.25},
	{"paced_p50_ms", "ms", "lower", 0.25},
	{"paced_mean_ms", "ms", "lower", 0.25},
	{"state_read_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"sim_cycles_per_batch", "cycles", "lower", 0.10},
	{"sim_speedup_x", "ratio", "higher", 0.15},
}

// perLayer are the traced run's numbers, one group per layer. They carry no
// bound: they explain an end-to-end change, they do not gate one.
var perLayer = []metricDef{
	{Name: "service.http_self_ns", Unit: "ns", Better: "lower"},
	{Name: "service.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "service.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "service.ingest_self_ns", Unit: "ns", Better: "lower"},
	{Name: "service.body_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.throttled", Unit: "count", Better: "lower"},

	{Name: "system.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "system.self_ns", Unit: "ns", Better: "lower"},
	{Name: "system.state_copy_ns", Unit: "ns", Better: "lower"},

	{Name: "core.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "core.compute_ns", Unit: "ns", Better: "lower"},
	{Name: "core.events_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.phases_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.vertices_reset_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.requests_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.deletes_discarded_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_batch", Unit: "bytes", Better: "lower"},

	{Name: "engine.min_phase_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.events_per_us", Unit: "1/us", Better: "higher"},
	{Name: "engine.rounds_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.idle_spins_per_batch", Unit: "count", Better: "lower"},
	{Name: "engine.forwarded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.worker_skew", Unit: "ratio", Better: "lower"},
	{Name: "engine.initial_ns", Unit: "ns", Better: "lower"},

	{Name: "queue.new_sharded_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.sparse_drain_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "queue.high_water", Unit: "count", Better: "lower"},

	{Name: "graph.sanitize_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.apply_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.alloc_bytes_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "graph.edge_slots_ratio", Unit: "ratio", Better: "lower"},
	{Name: "graph.inline_frac", Unit: "ratio", Better: "higher"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "wal.syncs_per_batch", Unit: "ratio", Better: "lower"},
	{Name: "wal.replay_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "window.expire_ns", Unit: "ns", Better: "lower"},
	{Name: "window.record_ns", Unit: "ns", Better: "lower"},
	{Name: "window.expired_per_batch", Unit: "count", Better: "lower"},
	{Name: "window.live_edges", Unit: "count", Better: "lower"},

	{Name: "mem.row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.utilization", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_accesses_per_batch", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_cycle", Unit: "ns", Better: "lower"},

	{Name: "loadgen.send_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.http_rtt_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overcovered_frac", Unit: "ratio", Better: "lower"},
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	// notes carry what a number needs beside it to be read: sample counts,
	// the bases of ratios, which percentile the sample supports.
	notes []string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) count(ps *phaseStats) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	if r.firstErr == nil {
		r.firstErr = ps.firstErr
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// printMetrics writes every metric of defs the result carries, by name with
// its unit, then the notes.
func (r *result) printMetrics(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// resultLine is the driver's result object: the run's verdict and every
// metric with its unit.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the result object with every metric of defs.
func (r *result) jsonLine(defs []metricDef) (string, error) {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not produce metric %s", r.workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	blob, err := json.Marshal(out)
	return string(blob), err
}

// parseResultLine is jsonLine's inverse, for a workload run in a child process.
func parseResultLine(workload, line string) (*result, error) {
	var in resultLine
	if err := json.Unmarshal([]byte(line), &in); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	r := newResult(workload)
	r.attempted, r.failed = in.Attempted, in.Failed
	for name, v := range in.Metrics {
		r.metrics[name] = v.Value
	}
	return r, nil
}

// printTable writes one row per metric and one column per workload.
func printTable(w io.Writer, defs []metricDef, results []*result) {
	fmt.Fprintf(w, "%-34s %-6s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %14s", r.workload)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %-6s", d.Name, d.Unit)
		for _, r := range results {
			if v, ok := r.metrics[d.Name]; ok {
				fmt.Fprintf(w, " %14.6g", v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
