// Package core assembles VAMANA's components — the MASS store, the XPath
// compiler, the cost estimator, the optimizer and the execution engine —
// into the query engine of the paper's Fig. 2. The public API in the
// repository root package wraps this engine.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/opt"
	"vamana/internal/pager"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

// Options configures an Engine.
type Options struct {
	// Path is the page file backing the MASS store; empty runs fully in
	// memory.
	Path string
	// CachePages bounds the index page cache for file-backed stores
	// (see mass.Options.CachePages). 0 selects the default.
	CachePages int
	// Backend, when non-nil, overrides Path as the pager's storage (see
	// mass.Options.Backend). Used by crash-safety tests to inject faults.
	Backend pager.Backend
	// DisableChecksumVerify skips per-page CRC verification on reads.
	// Diagnostics and benchmarking only.
	DisableChecksumVerify bool
	// PlanCacheSize bounds the number of compiled plans the serving fast
	// path keeps (see Engine.Query). 0 selects the default (256);
	// negative disables plan caching.
	PlanCacheSize int
	// SlowQueryThreshold records queries on every read path whose
	// end-to-end latency meets or exceeds it into the slow-query ring
	// (and SlowQueryLog, when set). 0 disables slow-query tracking.
	SlowQueryThreshold time.Duration
	// SlowQueryLog, when non-nil, receives one line per slow query.
	SlowQueryLog io.Writer
	// TraceEvery samples a TraceContext for 1-in-N queries on every read
	// path (1 traces every query). 0 disables tracing; the unsampled
	// cache-hit path then allocates no per-query trace state at all.
	TraceEvery int
	// TraceSink receives each sampled TraceContext after its query
	// finishes. Called from the goroutine that drained the iterator;
	// implementations should be fast or hand off.
	TraceSink func(*TraceContext)
	// FlightRecorderSize keeps the last N complete query traces (with
	// full span trees) in a bounded ring, readable via Engine.Traces —
	// so a query that turns out slow or budget-tripped is already
	// captured. N>0 records spans for every query (independent of
	// TraceEvery sampling); 0 disables the recorder.
	FlightRecorderSize int
	// ExecBatch sets the executor's pull-batch size for every query this
	// engine runs (see exec.Context.Batch). 0 selects exec.DefaultBatch;
	// 1 degenerates to tuple-at-a-time execution. Exposed mainly for the
	// vbench batch sweep and the differential harness.
	ExecBatch int
	// DisableCostObservatory turns off est-vs-act accuracy collection on
	// the serving path (on by default; the fold is allocation-free and
	// inside the 1% observability budget). Benchmark pairing only.
	DisableCostObservatory bool
	// CostCalibration enables the observatory's feedback loop: learned
	// per-class correction factors are applied inside cost estimation,
	// cached plans are invalidated when a factor drifts, and the
	// plan-regression sentinel tracks decision changes. Results are
	// never affected — only plan choice. Implies the observatory.
	CostCalibration bool
}

// Engine is a VAMANA instance: one MASS store plus the query pipeline.
type Engine struct {
	store *mass.Store
	// probes memoizes statistics probes per (document, epoch), shared by
	// every optimization and estimation this engine runs.
	probes *cost.MemoProbes
	// plans is the serving fast path's compiled-plan cache; nil when
	// disabled.
	plans *planCache

	// live is the read view over the live store (see view).
	live view
	// slow is the slow-query recorder; nil when no threshold is set.
	slow       *slowLog
	traceEvery uint64
	traceSink  func(*TraceContext)
	traceN     atomic.Uint64
	// flight is the bounded ring of recent complete traces; nil when
	// Options.FlightRecorderSize is 0.
	flight *flightRecorder
	// traceSeq mints TraceContext IDs.
	traceSeq atomic.Uint64
	// execBatch is Options.ExecBatch, stamped on every run's exec.Context.
	execBatch int
	// cost is the est-vs-act accuracy observatory; nil when disabled.
	cost *CostObservatory
}

// Open creates or reopens an engine.
func Open(opts Options) (*Engine, error) {
	s, err := mass.Open(mass.Options{
		Path:                  opts.Path,
		CachePages:            opts.CachePages,
		Backend:               opts.Backend,
		DisableChecksumVerify: opts.DisableChecksumVerify,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{store: s, probes: cost.NewMemoProbes(s), execBatch: opts.ExecBatch}
	if opts.PlanCacheSize >= 0 {
		e.plans = newPlanCache(opts.PlanCacheSize)
	}
	if !opts.DisableCostObservatory {
		e.cost = newCostObservatory(s, opts.CostCalibration)
	}
	e.live.init(e, s, e.plans, e.probes, nil)
	if opts.SlowQueryThreshold > 0 {
		e.slow = &slowLog{threshold: opts.SlowQueryThreshold, w: opts.SlowQueryLog}
	}
	if opts.TraceEvery > 0 {
		e.traceEvery = uint64(opts.TraceEvery)
		e.traceSink = opts.TraceSink
	}
	if opts.FlightRecorderSize > 0 {
		e.flight = newFlightRecorder(opts.FlightRecorderSize)
	}
	return e, nil
}

// Store exposes the underlying MASS store (used by the benchmark harness
// and the CLI for statistics).
func (e *Engine) Store() *mass.Store { return e.store }

// Close flushes and releases the engine.
func (e *Engine) Close() error { return e.store.Close() }

// VerifyPages checksums every durable page of the backing store. See
// mass.Store.VerifyPages.
func (e *Engine) VerifyPages() (checked int, corrupt []pager.PageID, err error) {
	return e.store.VerifyPages()
}

// Load shreds and indexes an XML document under a unique name.
func (e *Engine) Load(name string, r io.Reader) (mass.DocID, error) {
	return e.store.LoadDocument(name, r)
}

// LoadString is Load from a string.
func (e *Engine) LoadString(name, src string) (mass.DocID, error) {
	return e.Load(name, strings.NewReader(src))
}

// Query is a compiled (and possibly optimized) XPath expression.
type Query struct {
	engine    *Engine
	expr      string
	plan      *plan.Plan
	optimized bool
	trace     []string
}

// Compile parses expr and builds the default (unoptimized) query plan —
// "VQP" in the paper's experiments. Parse failures wrap the underlying
// *xpath.SyntaxError, so callers can recover the offending position with
// errors.As.
func (e *Engine) Compile(expr string) (*Query, error) {
	ast, err := xpath.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("vamana: compile: %w", err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		return nil, fmt.Errorf("vamana: compile: %w", err)
	}
	return &Query{engine: e, expr: expr, plan: p}, nil
}

// CompileOptimized parses expr and runs the cost-driven optimizer against
// doc's live statistics — "VQP-OPT".
func (e *Engine) CompileOptimized(doc mass.DocID, expr string) (*Query, error) {
	return e.live.compileOptimized(doc, expr)
}

// compileOptimized is CompileOptimized against v's store and statistics
// memo — the engine's own for live compiles, a snapshot's frozen pair
// for snapshot compiles.
func (v *view) compileOptimized(doc mass.DocID, expr string) (*Query, error) {
	e := v.e
	q, err := e.Compile(expr)
	if err != nil {
		return nil, err
	}
	defPlan := q.plan
	o := &opt.Optimizer{
		Store:     v.st,
		Doc:       doc,
		Probes:    v.probes,
		Calibrate: e.calibrateFn(),
		Trace: func(format string, args ...any) {
			q.trace = append(q.trace, fmt.Sprintf(format, args...))
		},
	}
	optPlan, err := o.Optimize(q.plan)
	if err != nil {
		return nil, err
	}
	q.plan = optPlan
	q.optimized = true
	// Plan-regression sentinel: once calibration has learned a real
	// correction, also optimize under raw costs and count compiles where
	// the two cost models rank different plans cheapest. Compile misses
	// are rare enough that the second optimization (probe-memoized) is
	// in the noise.
	if e.cost != nil && e.cost.calibrating && e.cost.calibrationActive() {
		raw := &opt.Optimizer{Store: v.st, Doc: doc, Probes: v.probes}
		if rawPlan, rerr := raw.Optimize(defPlan); rerr == nil && planShape(rawPlan) != planShape(optPlan) {
			e.cost.regressions.Add(1)
			obs.CostPlanRegressions.Inc()
		}
	}
	return q, nil
}

// CompileCached returns a compiled query for expr, consulting the plan
// cache first. Unoptimized plans depend only on the expression and are
// shared across documents; optimized plans are keyed by document and
// validated against the document's statistics epoch, so any update to the
// document transparently forces a recompile against fresh statistics.
func (e *Engine) CompileCached(doc mass.DocID, expr string, optimized bool) (*Query, error) {
	q, _, err := e.live.compileCached(doc, expr, optimized)
	return q, err
}

// compileCached is CompileCached through v's plan cache, store and
// statistics memo, plus a report of whether the plan came from the cache
// — the compile-vs-serve split the serving metrics track. A private
// snapshot cache never invalidates: the snapshot's epochs never move.
func (v *view) compileCached(doc mass.DocID, expr string, optimized bool) (*Query, bool, error) {
	compile := func() (*Query, error) {
		if optimized {
			return v.compileOptimized(doc, expr)
		}
		return v.e.Compile(expr)
	}
	if v.plans == nil {
		q, err := compile()
		return q, false, err
	}
	k := planKey{expr: expr, optimized: optimized}
	var epoch uint64
	if optimized {
		k.doc = doc
		// Capture the epoch before compiling: if an update lands while the
		// optimizer is probing, the entry records the pre-update epoch and
		// the next lookup recompiles — conservative but always correct.
		epoch = v.st.Epoch(doc)
	}
	if q, ok := v.plans.get(k, epoch); ok {
		return q, true, nil
	}
	q, err := compile()
	if err != nil {
		return nil, false, err
	}
	v.plans.put(k, q, epoch)
	return q, false, nil
}

// Query is the one-shot serving fast path: compile expr with the
// cost-driven optimizer (through the plan cache) and execute it against
// doc. Steady-state serving of a repeated query costs one cache lookup
// plus execution — no parsing, no optimization, no statistics probes.
//
// Every call is instrumented: the compile-vs-serve split and an
// end-to-end latency histogram feed the global metrics, queries over
// Options.SlowQueryThreshold land in the slow-query log, and 1-in-
// TraceEvery calls carry a sampled TraceContext. On the common path
// (cache hit, unsampled) the instrumentation adds two time.Now calls
// and a handful of counter updates — no allocations.
func (e *Engine) Query(doc mass.DocID, expr string) (*exec.Iterator, error) {
	return e.QueryContext(context.Background(), nil, doc, expr, govern.Limits{})
}

// QueryContext is Query under governance, over sn's pinned state (nil
// selects the live store): the run observes ctx's cancellation and
// deadline, and limits' resource budgets (zero limits = unlimited). A
// pre-canceled or pre-expired ctx fails here, before the plan cache or
// storage is touched. With a Background context and zero limits the
// limiter is nil and the path is identical to Query. A snapshot compiles
// through its own plan cache and statistics memo.
func (e *Engine) QueryContext(cctx context.Context, sn *Snapshot, doc mass.DocID, expr string, limits govern.Limits) (*exec.Iterator, error) {
	return e.viewOf(sn).query(cctx, doc, expr, limits)
}

// viewOf returns sn's read view, or the live view when sn is nil.
func (e *Engine) viewOf(sn *Snapshot) *view {
	if sn == nil {
		return &e.live
	}
	return &sn.view
}

// EnableFlightRecorder turns the flight recorder on (or resizes it)
// after Open — used by tools that benchmark untraced first and then
// want a traced pass on the same engine. Not safe to call concurrently
// with in-flight queries.
func (e *Engine) EnableFlightRecorder(size int) {
	if size <= 0 {
		e.flight = nil
		return
	}
	e.flight = newFlightRecorder(size)
}

// Traces returns the flight recorder's contents — the last N complete
// query traces with span trees, most recent first. Empty unless
// Options.FlightRecorderSize is set.
func (e *Engine) Traces() []*obs.QueryTrace {
	if e.flight == nil {
		return nil
	}
	return e.flight.snapshot()
}

// SlowQueries returns the recorded slow queries, most recent first (empty
// unless Options.SlowQueryThreshold is set).
func (e *Engine) SlowQueries() []SlowQuery {
	if e.slow == nil {
		return nil
	}
	return e.slow.snapshot()
}

// calibrateFn returns the cost-correction hook for this engine's
// estimations: nil unless Options.CostCalibration is on.
func (e *Engine) calibrateFn() func(*plan.Step, uint64) uint64 {
	if e.cost != nil && e.cost.calibrating {
		return e.cost.calibrateStep
	}
	return nil
}

// CostProfile snapshots the cost-model observatory: per-operator-class
// q-error profiles, worst offenders, and calibration state. The second
// return is false when the observatory is disabled.
func (e *Engine) CostProfile() (CostProfile, bool) {
	if e.cost == nil {
		return CostProfile{}, false
	}
	return e.cost.Profile(), true
}

// CacheStats reports plan-cache and statistics-memo counters.
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	if e.plans != nil {
		st.Hits = e.plans.hits.Load()
		st.Misses = e.plans.misses.Load()
		st.Evictions = e.plans.evictions.Load()
		st.Invalidations = e.plans.invalidations.Load()
	}
	st.ProbeHits, st.ProbeMisses, st.ProbeResets = e.probes.Counters()
	return st
}

// WriteMetrics writes the full metric exposition for this engine in
// Prometheus text format: the process-global counters and histograms,
// followed by this engine's storage counters (pager I/O, index node
// cache, records decoded, statistics probes) and cache statistics.
func (e *Engine) WriteMetrics(w io.Writer) error {
	if err := obs.WriteText(w); err != nil {
		return err
	}
	m := e.store.Metrics()
	st := e.CacheStats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"vamana_pager_page_reads_total", "Pages read from the pager.", m.Pager.Reads},
		{"vamana_pager_page_writes_total", "Pages written to the pager.", m.Pager.Writes},
		{"vamana_pager_page_allocs_total", "Pages allocated (fresh or recycled).", m.Pager.Allocs},
		{"vamana_pager_page_frees_total", "Pages returned to the free list.", m.Pager.Frees},
		{"vamana_pager_pages", "Current page count including the meta pages.", m.Pager.Pages},
		{"vamana_pager_commits_total", "Atomic Flush commits that reached the backing file.", m.Pager.Commits},
		{"vamana_pager_checksum_failures_total", "Page reads that failed CRC32C verification.", m.Pager.ChecksumFails},
		{"vamana_pager_meta_fallbacks_total", "Opens that lost one metadata copy and recovered from the other.", m.Pager.MetaFallbacks},
		{"vamana_pager_journal_replays_total", "Opens that completed an interrupted commit from its journal.", m.Pager.JournalReplays},
		{"vamana_btree_cache_hits_total", "Index node loads served from cache.", m.Index.CacheHits},
		{"vamana_btree_cache_misses_total", "Index node loads that read a page.", m.Index.CacheMisses},
		{"vamana_btree_cache_evictions_total", "Index nodes evicted from cache.", m.Index.CacheEvictions},
		{"vamana_btree_node_splits_total", "Leaf and branch node splits.", m.Index.Splits},
		{"vamana_btree_cursor_seeks_total", "Cursor seeks across all index trees.", m.Index.Seeks},
		{"vamana_btree_count_probes_total", "Counted-range probes (Count/Rank).", m.Index.Counts},
		{"vamana_mass_records_decoded_total", "Clustered-index records decoded.", m.RecordsDecoded},
		{"vamana_mass_stat_probes_total", "Statistics probes that reached storage (memo misses).", m.StatProbes},
		{"vamana_plan_cache_hits_total", "Plan-cache lookups served from cache.", st.Hits},
		{"vamana_plan_cache_misses_total", "Plan-cache lookups that compiled.", st.Misses},
		{"vamana_plan_cache_evictions_total", "Plan-cache entries dropped by LRU capacity.", st.Evictions},
		{"vamana_plan_cache_invalidations_total", "Plan-cache entries dropped by epoch change.", st.Invalidations},
		{"vamana_stats_memo_hits_total", "Statistics-memo probe hits.", st.ProbeHits},
		{"vamana_stats_memo_misses_total", "Statistics-memo probe misses.", st.ProbeMisses},
		{"vamana_stats_memo_resets_total", "Statistics-memo generations discarded.", st.ProbeResets},
	} {
		if err := obs.WriteCounterText(w, c.name, c.help, c.v); err != nil {
			return err
		}
	}
	if e.cost != nil {
		e.cost.Profile().writeProm(w)
	}
	return nil
}

// Expr returns the source expression.
func (q *Query) Expr() string { return q.expr }

// Optimized reports whether the cost-driven optimizer ran.
func (q *Query) Optimized() bool { return q.optimized }

// Plan exposes the physical plan (cost-annotated after optimization or
// Estimate).
func (q *Query) Plan() *plan.Plan { return q.plan }

// Trace returns the optimizer's decision log.
func (q *Query) Trace() []string { return q.trace }

// Estimate annotates a copy of the plan with cost information for doc
// without executing it, and returns the annotated copy. The query's own
// plan is never written after compilation — a Query is immutable and safe
// for concurrent use by any number of goroutines (which is what lets the
// engine's plan cache share one Query across a serving fleet).
func (q *Query) Estimate(doc mass.DocID) (*plan.Plan, error) {
	p := q.plan.Clone()
	est := &cost.Estimator{Store: q.engine.probes, Doc: doc, Calibrate: q.engine.calibrateFn()}
	if err := est.Estimate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Explain renders the cost-annotated plan and ordered list for doc.
func (q *Query) Explain(doc mass.DocID) (string, error) {
	p, err := q.Estimate(doc)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("query: %s\noptimized: %v\n", q.expr, q.optimized)
	out += opt.Explain(p)
	for _, line := range q.trace {
		out += "rewrite: " + line + "\n"
	}
	return out, nil
}

// ExplainAnalyze estimates the plan, executes it to completion, and
// renders each operator's estimated bounds next to its actual execution
// counters — the empirical check that the cost model's OUT values really
// are upper bounds. The annotated clone is what executes, so the
// per-operator stats refer to operators carrying fresh estimates while
// the shared plan stays untouched. Use Analyze for the structured form.
func (q *Query) ExplainAnalyze(doc mass.DocID) (string, error) {
	a, err := q.Analyze(doc)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("query: %s\noptimized: %v\n", q.expr, q.optimized) + a.String(), nil
}

// RunContext executes the compiled query with every run parameter
// explicit: the snapshot to read (nil selects the engine's live store),
// the initial context node ("" selects the document root), variable
// bindings, document-order delivery, and governance. The run finishes
// through the same hook as Engine.QueryContext, so it is timed, folded
// into the cost observatory, slow-logged and traced alike.
func (q *Query) RunContext(ctx context.Context, sn *Snapshot, doc mass.DocID, start flex.Key, vars map[string][]flex.Key, ordered bool, limits govern.Limits) (*exec.Iterator, error) {
	t0 := time.Now()
	if err := govern.CheckContext(ctx); err != nil {
		return nil, err
	}
	return q.engine.viewOf(sn).run(ctx, q, true, t0, doc, start, vars, ordered, limits)
}
