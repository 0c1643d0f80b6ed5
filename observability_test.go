package vamana

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana/internal/obs"
	"vamana/internal/xmark"
)

// drainCount runs expr through the serving path and returns its result
// cardinality.
func drainCount(t *testing.T, db *DB, doc *Document, expr string) int {
	t.Helper()
	res, err := db.Query(doc, expr)
	if err != nil {
		t.Fatalf("Query(%s): %v", expr, err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Query(%s) drain: %v", expr, err)
	}
	return n
}

// TestMetricCounterMonotonicity runs queries and asserts that no global
// counter ever decreases, and that the counters a query run must touch
// strictly increase.
func TestMetricCounterMonotonicity(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	before := obs.Snapshot()
	if drainCount(t, db, doc, "//person/address") == 0 {
		t.Fatal("no results")
	}
	// Second run of the same expression exercises the cache-hit path.
	drainCount(t, db, doc, "//person/address")
	after := obs.Snapshot()

	for name, v := range before {
		// Quantile series are gauges — they move both ways as the
		// latency distribution shifts.
		if strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p95") || strings.HasSuffix(name, "_p99") {
			continue
		}
		if after[name] < v {
			t.Errorf("counter %s decreased: %d -> %d", name, v, after[name])
		}
	}
	mustGrow := []string{
		"vamana_exec_runs_total",
		"vamana_exec_results_total",
		"vamana_exec_axis_scans_total",
		"vamana_queries_compiled_total",
		"vamana_queries_served_cached_total",
		"vamana_query_latency_ns_count",
	}
	for _, name := range mustGrow {
		if after[name] <= before[name] {
			t.Errorf("counter %s did not increase: %d -> %d", name, before[name], after[name])
		}
	}
}

// workloadExprs are the paper's five workload queries Q1-Q5.
var workloadExprs = []string{
	"//person/address",
	"//watches/watch/ancestor::person",
	"/descendant::name/parent::*/self::person/address",
	"//itemref/following-sibling::price/parent::*",
	"//province[text()='Vermont']/ancestor::person",
}

// TestExplainAnalyzeActualsMatchQuery asserts that the actual
// cardinalities ExplainAnalyze reports agree with the result counts the
// serving path returns for the paper's workload queries Q1-Q5.
func TestExplainAnalyzeActualsMatchQuery(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	exprs := workloadExprs
	resultsRe := regexp.MustCompile(`(?m)^results: (\d+)$`)
	for i, expr := range exprs {
		want := drainCount(t, db, doc, expr)
		q, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
		if err != nil {
			t.Fatalf("Q%d compile: %v", i+1, err)
		}
		out, err := q.ExplainAnalyze(doc)
		if err != nil {
			t.Fatalf("Q%d ExplainAnalyze: %v", i+1, err)
		}
		m := resultsRe.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("Q%d: no results line in:\n%s", i+1, out)
		}
		got, _ := strconv.Atoi(m[1])
		if got != want {
			t.Errorf("Q%d: ExplainAnalyze results %d, Query returned %d\n%s", i+1, got, want, out)
		}
		if !strings.Contains(out, "est IN=") || !strings.Contains(out, "| act ") {
			t.Errorf("Q%d: missing est/act columns:\n%s", i+1, out)
		}
		if !strings.Contains(out, fmt.Sprintf("| act OUT=%d", want)) {
			t.Errorf("Q%d: root actual OUT=%d not reported:\n%s", i+1, want, out)
		}
	}
}

// TestPlanCacheEvictionConcurrent mixes compile and serve traffic over
// far more distinct expressions than a tiny cache can hold, concurrently,
// and checks that eviction counters move and results stay correct.
func TestPlanCacheEvictionConcurrent(t *testing.T) {
	db, err := Open(Options{PlanCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const canonical = "//person/address"
	want := drainCount(t, db, doc, canonical)
	if want == 0 {
		t.Fatal("no results for canonical expression")
	}

	exprs := make([]string, 0, 40)
	for i := 0; i < 39; i++ {
		exprs = append(exprs, fmt.Sprintf("//person/x%d", i))
	}
	exprs = append(exprs, canonical)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(exprs); i++ {
				expr := exprs[(g*7+i)%len(exprs)]
				if i%2 == 0 {
					res, err := db.Query(doc, expr)
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for res.Next() {
						n++
					}
					if err := res.Err(); err != nil {
						errs <- err
						return
					}
					if expr == canonical && n != want {
						errs <- fmt.Errorf("%s under load: got %d results, want %d", expr, n, want)
						return
					}
				} else {
					// Alternate optimized and default-plan compiles.
					opts := []CompileOption{WithDocument(doc)}
					if g%2 != 0 {
						opts = append(opts, WithoutOptimization())
					}
					if _, err := db.Prepare(expr, opts...); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The storm thrashed the 8-entry cache; back-to-back repeats of one
	// expression must now hit.
	drainCount(t, db, doc, canonical)
	if got := drainCount(t, db, doc, canonical); got != want {
		t.Errorf("%s after load: got %d results, want %d", canonical, got, want)
	}

	cs := db.CacheStats()
	if cs.Evictions == 0 {
		t.Errorf("no evictions recorded under overload: %+v", cs)
	}
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("expected both hits and misses: %+v", cs)
	}
}

// TestSlowQueryLog drives the threshold to 1ns so every query is slow,
// then checks both the in-memory ring and the configured writer.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const expr = "//person/address"
	drainCount(t, db, doc, expr)
	drainCount(t, db, doc, expr)

	slow := db.SlowQueries()
	if len(slow) < 2 {
		t.Fatalf("SlowQueries returned %d entries, want >= 2", len(slow))
	}
	if slow[0].Expr != expr {
		t.Errorf("newest slow query is %q, want %q", slow[0].Expr, expr)
	}
	if slow[0].Total <= 0 {
		t.Errorf("slow query has non-positive duration: %+v", slow[0])
	}
	// The second run was served from the plan cache.
	if !slow[0].CacheHit {
		t.Errorf("newest slow entry should be a cache hit: %+v", slow[0])
	}
	if got := strings.Count(buf.String(), "slow query:"); got < 2 {
		t.Errorf("writer got %d slow-query lines, want >= 2:\n%s", got, buf.String())
	}
}

// TestTraceSampling samples 1 in 2 queries and expects exactly half of
// the runs to reach the sink.
func TestTraceSampling(t *testing.T) {
	var mu sync.Mutex
	var traces []*TraceContext
	db, err := Open(Options{
		TraceEvery: 2,
		TraceSink: func(tc *TraceContext) {
			mu.Lock()
			traces = append(traces, tc)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const runs = 10
	for i := 0; i < runs; i++ {
		drainCount(t, db, doc, "//person/address")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != runs/2 {
		t.Fatalf("sampled %d traces out of %d runs, want %d", len(traces), runs, runs/2)
	}
	for _, tc := range traces {
		if tc.Expr != "//person/address" || tc.Total <= 0 || tc.Results == 0 {
			t.Errorf("bad trace: %+v", tc)
		}
	}
}

// TestMetricsOverheadGate asserts that metric collection costs the warm
// serving path at most 5%. It interleaves measurement rounds with
// collection toggled via obs.SetEnabled inside one process, taking the
// best round per mode, so cross-process variance (fixture layout, CPU
// frequency drift) cancels out. Skipped unless VAMANA_METRICS_GATE is
// set — scripts/check.sh runs it.
func TestMetricsOverheadGate(t *testing.T) {
	if os.Getenv("VAMANA_METRICS_GATE") == "" {
		t.Skip("set VAMANA_METRICS_GATE=1 to run the serving metrics-overhead gate")
	}
	// Same document size as BenchmarkServing: small enough that per-query
	// work is a few microseconds — the regime where fixed per-query
	// instrumentation cost is most visible.
	db := openDB(t)
	doc := loadAuction(t, db, xmark.FactorForBytes(32<<10))
	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}

	serveLoop := func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				expr := workloadExprs[i%len(workloadExprs)]
				i++
				res, err := db.Query(doc, expr)
				if err != nil {
					b.Fatal(err)
				}
				for res.Next() {
				}
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	defer obs.SetEnabled(true)
	measure := func(on bool) float64 {
		obs.SetEnabled(on)
		return float64(testing.Benchmark(serveLoop).NsPerOp())
	}

	measure(true) // warm-up round, discarded
	// Paired rounds: each round measures both modes back to back (order
	// alternating), and the gate checks the median of the per-round
	// ratios. Pairing cancels the slow machine-level drift (CPU frequency,
	// co-tenant load) that dominates absolute ns/op on shared hardware.
	// Several attempts (matching the trace/calibration gates) so a single
	// noisy campaign cannot fail the gate — only a persistent regression.
	const (
		rounds   = 7
		attempts = 3
	)
	var median float64
	for attempt := 1; attempt <= attempts; attempt++ {
		ratios := make([]float64, 0, rounds)
		offBest, onBest := math.MaxFloat64, math.MaxFloat64
		for i := 0; i < rounds; i++ {
			var off, on float64
			if i%2 == 0 {
				off, on = measure(false), measure(true)
			} else {
				on, off = measure(true), measure(false)
			}
			ratios = append(ratios, on/off)
			offBest, onBest = min(offBest, off), min(onBest, on)
		}
		sort.Float64s(ratios)
		median = ratios[rounds/2]
		t.Logf("attempt %d: warm serving ns/op: best off %.0f, best on %.0f; per-round ratios %v, median %.3f",
			attempt, offBest, onBest, ratios, median)
		if median <= 1.05 {
			return
		}
	}
	t.Errorf("metrics overhead %.1f%% exceeds the 5%% budget on all %d attempts", 100*(median-1), attempts)
}

// TestMetricsExposition checks the Prometheus-text endpoint and the
// per-store counters behind it.
func TestMetricsExposition(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address")

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vamana_exec_runs_total counter",
		"vamana_query_latency_ns_bucket",
		"vamana_pager_page_reads_total",
		"vamana_btree_cache_hits_total",
		"vamana_mass_records_decoded_total",
		"vamana_plan_cache_misses_total",
		"vamana_stats_memo_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics output missing %q", want)
		}
	}

	sm := db.StorageMetrics()
	if sm.RecordsDecoded == 0 {
		t.Error("StorageMetrics.RecordsDecoded is zero after a query")
	}
	if sm.Index.Seeks == 0 {
		t.Error("StorageMetrics.Index.Seeks is zero after a query")
	}

	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics handler status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "vamana_exec_runs_total") {
		t.Error("metrics handler body missing global counters")
	}
}
