package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// endToEnd and perLayer are the metric sets BENCHMARK.json declares: an
// untraced run reports endToEnd, a traced run perLayer. Both are
// measured on every workload.
var endToEnd = []string{
	"read_p50_ms", "read_p90_ms", "read_ttfb_p50_ms",
	"setup_s", "heap_mb", "store_bytes_per_xml_byte",
}

var perLayer = []string{
	"serve.overhead_p50_ms", "serve.queue_wait_p99_ms", "serve.stream_us_per_node",
	"serve.bytes_per_node", "serve.rejected_frac", "serve.capacity_qps",
	"core.plan_cache_hit_ratio", "core.memo_hit_ratio", "core.plan_invalidations_per_commit",
	"xpath.parse_us",
	"opt.optimize_us", "cost.stat_probes_per_compile",
	"exec.first_result_us",
	"exec.drain_us.Q1", "exec.drain_us.Q2", "exec.drain_us.Q3", "exec.drain_us.Q4", "exec.drain_us.Q5",
	"exec.op_self_share.root", "exec.op_self_share.join", "exec.op_self_share.pred",
	"exec.op_self_share.literal", "exec.op_self_share.child", "exec.op_self_share.descendant",
	"exec.op_self_share.descendant-or-self", "exec.op_self_share.parent",
	"exec.op_self_share.ancestor", "exec.op_self_share.self",
	"exec.op_self_share.following-sibling", "exec.op_self_share.attribute",
	"exec.op_self_share.value-index", "exec.op_self_share.other",
	"mass.node_decode_us", "mass.records_decoded_per_query", "mass.txn_apply_us",
	"mass.commit_us", "mass.load_mb_s",
	"btree.cache_hit_ratio", "btree.evictions_per_query", "btree.seeks_per_query",
	"pager.reads_per_query", "pager.pages_written_per_commit",
	"pager.pages_stashed_per_commit", "pager.store_pages",
	"runtime.alloc_bytes_per_req", "runtime.gc_cpu_frac",
	"commit_p50_ms", "commit_p99_ms", "trace.overhead_frac",
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	Name string
	metric
}

// report is everything one run measured, in the order it was measured.
type report struct {
	metrics   []namedMetric
	envs      []envEntry
	attempted int
	failed    int
	failures  []error
	layers    []layerRow
}

type envEntry struct {
	Name  string
	Value any
}

func (r *report) set(name string, v float64, unit string) {
	for i := range r.metrics {
		if r.metrics[i].Name == name {
			r.metrics[i].metric = metric{v, unit}
			return
		}
	}
	r.metrics = append(r.metrics, namedMetric{name, metric{v, unit}})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.metric, true
		}
	}
	return metric{}, false
}

func (r *report) env(name string, v any) { r.envs = append(r.envs, envEntry{name, v}) }

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the declared metrics for the run's mode.
func (r *report) result(trace bool) (result, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := r.get(n)
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	return out, nil
}

// print writes the human-readable report: environment, every metric
// measured, the per-layer span table and the first failures.
func (r *report) print(w io.Writer) {
	for _, e := range r.envs {
		fmt.Fprintf(w, "env %-20s %v\n", e.Name, e.Value)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.layers) > 0 {
		printLayers(w, r.layers)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.attempted, r.failed)
	for _, err := range r.failures {
		fmt.Fprintln(w, "failure:", err)
	}
}

// save writes the full report as JSON for later comparison.
func (r *report) save(path string) error {
	env := make(map[string]any, len(r.envs))
	for _, e := range r.envs {
		env[e.Name] = e.Value
	}
	ms := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = m.metric
	}
	var fails []string
	for _, err := range r.failures {
		fails = append(fails, err.Error())
	}
	b, err := json.MarshalIndent(map[string]any{
		"env": env, "metrics": ms, "attempted": r.attempted, "failed": r.failed,
		"failures": fails, "layers": r.layers,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
