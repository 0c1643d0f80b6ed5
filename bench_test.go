package vamana_test

// The benchmarks in this file regenerate the paper's evaluation (§VIII):
// one benchmark per figure, with sub-benchmarks per document size and
// engine. Figures 12-16 plot the execution time of queries Q1-Q5 on
// Galax, Jaxen, eXist, VQP (default VAMANA plan) and VQP-OPT (cost-driven
// optimized plan) across XMark document sizes.
//
// Default sizes are kept small so `go test -bench=.` completes quickly;
// set VAMANA_BENCH_MB (e.g. "1,5,10,20,30") to reproduce the paper's full
// sweep. cmd/vbench prints the same data as figure-style series tables.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vamana"
	"vamana/internal/bench"
	"vamana/internal/core"
	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/mass"
	"vamana/internal/opt"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

func benchSizesMB() []int {
	if env := os.Getenv("VAMANA_BENCH_MB"); env != "" {
		var out []int
		for _, part := range strings.Split(env, ",") {
			if n, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && n > 0 {
				out = append(out, n)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return []int{1, 4}
}

var (
	fixMu    sync.Mutex
	fixtures = map[int]*bench.Fixture{}
)

func fixtureMB(b *testing.B, mb int) *bench.Fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixtures[mb]; ok {
		return f
	}
	f, err := bench.NewFixture(mb<<20, 71, false)
	if err != nil {
		b.Fatal(err)
	}
	fixtures[mb] = f
	return f
}

// benchFigure runs one paper figure: a query across sizes and engines.
func benchFigure(b *testing.B, queryID string) {
	q, ok := bench.QueryByID(queryID)
	if !ok {
		b.Fatalf("unknown query %s", queryID)
	}
	for _, mb := range benchSizesMB() {
		f := fixtureMB(b, mb)
		for _, e := range bench.AllEngines {
			b.Run(fmt.Sprintf("size=%dMB/engine=%s", mb, e), func(b *testing.B) {
				// Warm engine caches (DOM builds, indexes) outside the
				// timed region, and surface unsupported configurations
				// as skips — the paper's charts show these as missing
				// data points.
				if r := f.Run(e, q); r.Err != nil {
					b.Skipf("%s cannot run %s: %v", e, q.ID, r.Err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := f.Run(e, q)
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12 reproduces Figure 12: execution time of Q1
// //person/address.
func BenchmarkFig12(b *testing.B) { benchFigure(b, "Q1") }

// BenchmarkFig13 reproduces Figure 13: execution time of Q2
// //watches/watch/ancestor::person.
func BenchmarkFig13(b *testing.B) { benchFigure(b, "Q2") }

// BenchmarkFig14 reproduces Figure 14: execution time of Q3
// /descendant::name/parent::*/self::person/address (the VQP vs VQP-OPT
// emphasis figure).
func BenchmarkFig14(b *testing.B) { benchFigure(b, "Q3") }

// BenchmarkFig15 reproduces Figure 15: execution time of Q4
// //itemref/following-sibling::price/parent::* (Galax and eXist lack the
// axis and appear as skips).
func BenchmarkFig15(b *testing.B) { benchFigure(b, "Q4") }

// BenchmarkFig16 reproduces Figure 16: execution time of Q5
// //province[text()='Vermont']/ancestor::person (the value-predicate
// query where eXist pays its traversal fallback).
func BenchmarkFig16(b *testing.B) { benchFigure(b, "Q5") }

// BenchmarkOptimizerOverhead measures the cost of cost-driven
// optimization itself (compile + statistics probes + rewriting), which
// the paper reports as negligible next to execution time.
func BenchmarkOptimizerOverhead(b *testing.B) {
	for _, mb := range benchSizesMB() {
		f := fixtureMB(b, mb)
		eng, doc := f.VamanaEngine()
		for _, q := range bench.Queries {
			b.Run(fmt.Sprintf("size=%dMB/%s", mb, q.ID), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.CompileOptimized(doc, q.XPath); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblation isolates each optimizer feature: the full rule
// library against versions with one rule class removed, plus cleanup-only
// — the design-choice ablations called out in DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	f := fixtureMB(b, benchSizesMB()[0])
	eng, doc := f.VamanaEngine()
	store := eng.Store()

	variants := []struct {
		name  string
		rules func() []opt.Rule
	}{
		{"full", opt.Library},
		{"no-value-index", func() []opt.Rule { return dropRule(opt.Library(), "value-index") }},
		{"no-pushdown", func() []opt.Rule { return dropRule(opt.Library(), "child-pushdown") }},
		{"no-inversion", func() []opt.Rule { return dropRule(opt.Library(), "parent-inversion") }},
		{"cleanup-only", func() []opt.Rule { return []opt.Rule{} }},
	}
	for _, q := range bench.Queries {
		for _, v := range variants {
			b.Run(q.ID+"/"+v.name, func(b *testing.B) {
				p := mustPlan(b, q.XPath)
				rules := v.rules()
				o := &opt.Optimizer{Store: store, Doc: doc, Rules: rules}
				if len(rules) == 0 {
					o.MaxIterations = 1
				}
				optimized, err := o.Optimize(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					it, err := exec.Run(optimized, exec.Context{Store: store, Doc: doc})
					if err != nil {
						b.Fatal(err)
					}
					for it.Next() {
					}
					if it.Err() != nil {
						b.Fatal(it.Err())
					}
				}
			})
		}
	}
}

func dropRule(rules []opt.Rule, name string) []opt.Rule {
	out := rules[:0:0]
	for _, r := range rules {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

func mustPlan(b *testing.B, expr string) *plan.Plan {
	b.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAllocs measures allocations per executed query for the paper's
// workload Q1-Q5, compiling once outside the loop so the numbers isolate
// the execution hot path (index scans, cursor movement, key decoding).
// Before/after numbers for the allocation-reduction work are recorded in
// EXPERIMENTS.md.
func BenchmarkAllocs(b *testing.B) {
	f := fixtureMB(b, benchSizesMB()[0])
	eng, doc := f.VamanaEngine()
	store := eng.Store()
	for _, q := range bench.Queries {
		b.Run(q.ID, func(b *testing.B) {
			cq, err := eng.CompileOptimized(doc, q.XPath)
			if err != nil {
				b.Fatal(err)
			}
			p := cq.Plan()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := exec.Run(p, exec.Context{Store: store, Doc: doc})
				if err != nil {
					b.Fatal(err)
				}
				for it.Next() {
				}
				if it.Err() != nil {
					b.Fatal(it.Err())
				}
			}
		})
	}
}

// BenchmarkServing measures the query-serving fast path: GOMAXPROCS
// goroutines each issuing repeated Q1-Q5 against one database. mode=cached
// goes through DB.Query (plan cache + statistics memo, the steady state of
// a serving process); mode=compile-per-call pays parse + optimize with
// statistics probes against the live B+-trees on every call — what each
// query cost before the serving fast path existed. Results, including the
// throughput ratio, are written to BENCH_serving.json.
func BenchmarkServing(b *testing.B) {
	// A small document keeps per-query execution time small enough that
	// the compile overhead — the thing the plan cache removes — dominates
	// the uncached mode, which is the regime where serving caches matter.
	const servingKB = 32
	type modeResult struct {
		NsPerOp    float64 `json:"ns_per_op"`
		QueriesSec float64 `json:"queries_per_sec"`
		Ops        int     `json:"ops"`
	}
	report := struct {
		Benchmark  string                `json:"benchmark"`
		DocKB      int                   `json:"doc_kb"`
		Goroutines int                   `json:"goroutines"`
		Queries    []string              `json:"queries"`
		Modes      map[string]modeResult `json:"modes"`
		Speedup    float64               `json:"speedup_cached_vs_compile"`
	}{
		Benchmark:  "BenchmarkServing",
		DocKB:      servingKB,
		Goroutines: runtime.GOMAXPROCS(0),
		Modes:      map[string]modeResult{},
	}
	for _, q := range bench.Queries {
		report.Queries = append(report.Queries, q.ID)
	}
	sf, err := bench.NewFixture(servingKB<<10, 71, false)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close()
	src := sf.Source()

	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		b.Fatal(err)
	}
	// Warm: the first call per expression compiles; serving throughput is
	// the steady state after that.
	for _, q := range bench.Queries {
		if _, err := db.Query(doc, q.XPath); err != nil {
			b.Fatal(err)
		}
	}

	// The compile-per-call baseline is what every DB.Query cost before the
	// serving fast path existed: parse, build, optimize with statistics
	// probes against the live B+-trees (no plan cache, no probe memo),
	// then execute.
	eng, docID := sf.VamanaEngine()
	store := eng.Store()
	compileAndRun := func(expr string) error {
		ast, err := xpath.Parse(expr)
		if err != nil {
			return err
		}
		p, err := plan.Build(ast)
		if err != nil {
			return err
		}
		o := &opt.Optimizer{Store: store, Doc: docID}
		optimized, err := o.Optimize(p)
		if err != nil {
			return err
		}
		it, err := exec.Run(optimized, exec.Context{Store: store, Doc: docID})
		if err != nil {
			return err
		}
		for it.Next() {
		}
		return it.Err()
	}

	modes := []struct {
		name  string
		serve func(q bench.Query) error
	}{
		{"cached", func(q bench.Query) error {
			res, err := db.Query(doc, q.XPath)
			if err != nil {
				return err
			}
			for res.Next() {
			}
			return res.Err()
		}},
		{"compile-per-call", func(q bench.Query) error {
			return compileAndRun(q.XPath)
		}},
	}
	for _, m := range modes {
		b.Run("mode="+m.name, func(b *testing.B) {
			serve := m.serve
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := bench.Queries[i%len(bench.Queries)]
					i++
					if err := serve(q); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			report.Modes[m.name] = modeResult{
				NsPerOp:    ns,
				QueriesSec: 1e9 / ns,
				Ops:        b.N,
			}
		})
	}

	cached, okC := report.Modes["cached"]
	uncached, okU := report.Modes["compile-per-call"]
	if okC && okU && cached.NsPerOp > 0 {
		report.Speedup = uncached.NsPerOp / cached.NsPerOp
		b.Logf("serving speedup (cached vs compile-per-call): %.1fx", report.Speedup)
		// Smoke runs (-benchtime 1x) produce single-iteration noise; only
		// overwrite the recorded results when the run actually measured.
		if cached.Ops < 100 || uncached.Ops < 100 {
			b.Logf("too few iterations to record; BENCH_serving.json left untouched")
			return
		}
		raw, err := json.Marshal(report)
		if err != nil {
			b.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			b.Fatal(err)
		}
		mergeBenchServing(b, fields)
	}
}

// mergeBenchServing folds fields into BENCH_serving.json, keeping
// whatever other top-level keys are already recorded there — so
// BenchmarkServing and BenchmarkServingBatch can each refresh their own
// section without clobbering the other's.
func mergeBenchServing(b *testing.B, fields map[string]json.RawMessage) {
	b.Helper()
	merged := map[string]json.RawMessage{}
	if data, err := os.ReadFile("BENCH_serving.json"); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			b.Logf("BENCH_serving.json unreadable (%v); rewriting from scratch", err)
			merged = map[string]json.RawMessage{}
		}
	}
	for k, v := range fields {
		merged[k] = v
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serving.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServingBatch sweeps the executor pull-batch size over the
// paper workload: each sub-benchmark serves one query shape through
// the engine's serving path (what DB.Query runs) on an engine opened with
// that executor batch size (bench.NewFixtureExecBatch), so the
// series isolates what vectorized batch-at-a-time execution buys over
// the tuple-at-a-time degenerate case (batch=1, the pre-batching
// executor's pull discipline). The shapes cover three regimes on a 1 MB
// document: the full paper workload Q1-Q5 (mixed scan/join cost),
// scan-heavy drains where per-tuple delivery dominates and batching
// pays, and selective shapes — an existential-predicate query whose
// probes demand one tuple at every pipeline level, and a first-match
// consumer that abandons the stream after one result — that pin down
// that batching must not over-pull under early termination. Results
// land in BENCH_serving.json under "batch_sweep".
func BenchmarkServingBatch(b *testing.B) {
	const docMB = 1
	batches := []int{1, 16, 64, 128, 256}
	type shape struct {
		name      string
		expr      string
		scanHeavy bool
		firstOnly bool
	}
	var shapes []shape
	for _, q := range bench.Queries {
		shapes = append(shapes, shape{name: q.ID, expr: q.XPath})
	}
	shapes = append(shapes,
		// Scan drains: cost is the index range scan plus per-tuple
		// delivery — the work batched pulls amortize. These are the
		// shapes the check.sh throughput gate holds at >= 1.5x.
		shape{name: "scan-name", expr: "//name", scanHeavy: true},
		shape{name: "scan-person", expr: "//person", scanHeavy: true},
		shape{name: "scan-address", expr: "//person/address", scanHeavy: true},
		shape{name: "scan-path", expr: "/site/people/person", scanHeavy: true},
		// Selective shapes: batching must not over-pull under early
		// termination or one-tuple-per-probe demand.
		shape{name: "exists", expr: "//person[address][watches]"},
		shape{name: "first-match", expr: "//person/address", firstOnly: true},
	)

	engs := map[int]*core.Engine{}
	docs := map[int]mass.DocID{}
	for _, batch := range batches {
		f, err := bench.NewFixtureExecBatch(docMB<<20, 71, false, batch)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		eng, doc := f.VamanaEngine()
		for _, s := range shapes {
			it, err := eng.Query(doc, s.expr)
			if err != nil {
				b.Fatal(err)
			}
			it.Close()
		}
		engs[batch], docs[batch] = eng, doc
	}

	type point struct {
		NsPerOp float64 `json:"ns_per_op"`
		Ops     int     `json:"ops"`
	}
	sweep := struct {
		DocMB   int                         `json:"doc_mb"`
		Batches []int                       `json:"batches"`
		Shapes  map[string]map[string]point `json:"shapes"`
		// ScanHeavySpeedup is the geometric mean over the scan-drain
		// shapes of ns(batch=1)/ns(batch=128).
		ScanHeavySpeedup float64 `json:"scan_heavy_speedup_128_vs_1"`
	}{DocMB: docMB, Batches: batches, Shapes: map[string]map[string]point{}}

	for _, s := range shapes {
		sweep.Shapes[s.name] = map[string]point{}
		for _, batch := range batches {
			eng, doc := engs[batch], docs[batch]
			b.Run(fmt.Sprintf("shape=%s/batch=%d", s.name, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					it, err := eng.Query(doc, s.expr)
					if err != nil {
						b.Fatal(err)
					}
					if s.firstOnly {
						it.Next()
					} else {
						for it.Next() {
						}
					}
					if err := it.Err(); err != nil {
						b.Fatal(err)
					}
					it.Close()
				}
				// The ramp invokes this body several times with growing
				// b.N; the final (largest) invocation's numbers win.
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				sweep.Shapes[s.name][strconv.Itoa(batch)] = point{NsPerOp: ns, Ops: b.N}
			})
		}
	}

	// Gate the write on the final per-point iteration counts — a filtered
	// or 1x run must not overwrite the recorded sweep with noise.
	minOps, nPoints := 1<<62, 0
	for _, pts := range sweep.Shapes {
		for _, p := range pts {
			nPoints++
			if p.Ops < minOps {
				minOps = p.Ops
			}
		}
	}
	if nPoints < len(shapes)*len(batches) {
		minOps = 0 // filtered run: some points never executed
	}

	logProduct, nScan := 0.0, 0
	for _, s := range shapes {
		if !s.scanHeavy {
			continue
		}
		one, def := sweep.Shapes[s.name]["1"], sweep.Shapes[s.name]["128"]
		if one.NsPerOp > 0 && def.NsPerOp > 0 {
			speedup := one.NsPerOp / def.NsPerOp
			b.Logf("%s: batch=128 is %.2fx batch=1 (%.0f ns vs %.0f ns)", s.name, speedup, def.NsPerOp, one.NsPerOp)
			logProduct += math.Log(speedup)
			nScan++
		}
	}
	if nScan > 0 {
		sweep.ScanHeavySpeedup = math.Exp(logProduct / float64(nScan))
		b.Logf("scan-heavy geomean speedup (batch=128 vs batch=1): %.2fx", sweep.ScanHeavySpeedup)
	}
	if minOps < 20 {
		b.Logf("too few iterations to record; BENCH_serving.json left untouched")
		return
	}
	raw, err := json.Marshal(sweep)
	if err != nil {
		b.Fatal(err)
	}
	mergeBenchServing(b, map[string]json.RawMessage{"batch_sweep": raw})
}

// BenchmarkCostEstimation measures a full plan estimation — a handful of
// O(log n) counted-index probes.
func BenchmarkCostEstimation(b *testing.B) {
	f := fixtureMB(b, benchSizesMB()[0])
	eng, doc := f.VamanaEngine()
	store := eng.Store()
	for _, q := range bench.Queries {
		b.Run(q.ID, func(b *testing.B) {
			p := mustPlan(b, q.XPath)
			opt.Cleanup(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est := &cost.Estimator{Store: store, Doc: doc}
				if err := est.Estimate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStatisticsProbes times the MASS counting primitives
// underpinning the cost model.
func BenchmarkStatisticsProbes(b *testing.B) {
	f := fixtureMB(b, benchSizesMB()[0])
	eng, doc := f.VamanaEngine()
	store := eng.Store()
	b.Run("CountName", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.CountName(doc, "person"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TextCount", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.TextCount(doc, "Yung Flach", ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoad measures streaming document load+index throughput.
func BenchmarkLoad(b *testing.B) {
	f := fixtureMB(b, benchSizesMB()[0])
	src := f.Source()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		s, err := mass.Open(mass.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.LoadDocument("auction", strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
