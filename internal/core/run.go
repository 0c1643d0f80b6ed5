package core

import (
	"context"
	"sync/atomic"
	"time"

	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/plan"
)

// The read path. Every query the engine runs — Engine.QueryContext and
// Query.RunContext, each on the live store or on a pinned or shared
// snapshot — starts in view.run and finishes in view.queryFinished, so
// every observability surface (latency histogram, cost observatory, slow
// log, sampled and flight-recorded traces, request traces, snapshot
// usage) sees every query on every path.

// view is one read view of the engine: the store a query reads plus the
// plan cache and statistics memo its plans compile against. The engine's
// live view and every Snapshot are views.
type view struct {
	e      *Engine
	st     *mass.Store
	plans  *planCache // nil when plan caching is disabled
	probes *cost.MemoProbes
	// usage tallies the work served from a user snapshot (Snapshot.
	// Usage); nil for the live view and shared auto-snapshots, which
	// nothing reads it from.
	usage *usageCounters
	// finishFn is queryFinished bound once, so the per-query path never
	// allocates a method value.
	finishFn func(*exec.Iterator)
}

// usageCounters back SnapshotUsage.
type usageCounters struct {
	queries atomic.Uint64
	results atomic.Uint64
	pages   atomic.Uint64
	records atomic.Uint64
}

// init fills in the view and binds its finish hook. The view must not
// be copied afterwards.
func (v *view) init(e *Engine, st *mass.Store, plans *planCache, probes *cost.MemoProbes, usage *usageCounters) {
	*v = view{e: e, st: st, plans: plans, probes: probes, usage: usage}
	v.finishFn = v.queryFinished
}

// query is the one-shot serving path over v: compile expr with the
// cost-driven optimizer through v's plan cache, then run it from the
// document root.
func (v *view) query(cctx context.Context, doc mass.DocID, expr string, limits govern.Limits) (*exec.Iterator, error) {
	start := time.Now()
	// Pre-flight: a pre-canceled or pre-expired ctx fails here, before
	// the plan cache, the optimizer's statistics probes, or storage is
	// touched. This is the query's single immediate poll; from here on
	// cancellation rides the limiter's amortized ticks.
	if err := govern.CheckContext(cctx); err != nil {
		return nil, err
	}
	q, hit, err := v.compileCached(doc, expr, true)
	if err != nil {
		return nil, err
	}
	if hit {
		obs.QueriesServedCached.Inc()
	} else {
		obs.QueriesCompiled.Inc()
	}
	return v.run(cctx, q, hit, start, doc, "", nil, false, limits)
}

// run starts q over v. It is the only place an engine query builds its
// exec.Context and TraceContext. hit reports that no compile happened on
// this query's path (a plan-cache hit, or a prepared query); from and
// vars are the initial context node ("" for the document root) and
// variable bindings.
func (v *view) run(cctx context.Context, q *Query, hit bool, start time.Time, doc mass.DocID, from flex.Key, vars map[string][]flex.Key, ordered bool, limits govern.Limits) (*exec.Iterator, error) {
	e := v.e
	ctx := exec.Context{
		Store:       v.st,
		Doc:         doc,
		Start:       from,
		Vars:        vars,
		Ordered:     ordered,
		Ctx:         cctx,
		Limits:      limits,
		OnFinish:    v.finishFn,
		FinishStart: start,
		FinishObj:   q,
		Batch:       e.execBatch,
	}
	// A traced query records per-operator spans: 1-in-TraceEvery samples,
	// or every query when the flight recorder is on (so slow/budget-
	// tripped queries are captured retroactively). Accounting is armed
	// only where something reads it — the slow log's storage deltas and
	// a user snapshot's Usage; tracing implies it.
	sampled := e.traceEvery > 0 && e.traceN.Add(1)%e.traceEvery == 0
	traced := sampled || e.flight != nil
	ctx.Trace = traced
	ctx.Account = e.slow != nil || v.usage != nil
	// A traced query (and the rare compile miss, whose cost dwarfs one
	// allocation) carries a TraceContext instead of the bare Query, so
	// the finish hook can report compile time and cache-hit status.
	if traced || !hit {
		tc := &TraceContext{
			ID:       e.traceSeq.Add(1),
			Expr:     q.expr,
			Doc:      doc,
			Start:    start,
			CacheHit: hit,
			Compile:  time.Since(start),
			sampled:  sampled,
			traced:   traced,
			q:        q,
		}
		if sampled {
			obs.TracesSampled.Inc()
		}
		// A traced run under a serving request joins the wire identity;
		// the finish hook then hands the export to the request instead of
		// the flight ring (the serving layer records the combined trace).
		if traced {
			if rt := requestTraceFrom(cctx); rt != nil {
				tc.Request, tc.Tenant, tc.req = rt.ID, rt.Tenant, rt
			}
		}
		ctx.FinishObj = tc
	}
	return exec.Run(q.plan, ctx)
}

// queryFinished is the iterator finish hook of every read path: it
// closes out the query's latency observation, snapshot usage, cost
// observatory fold, slow-query record, and trace.
func (v *view) queryFinished(it *exec.Iterator) {
	e := v.e
	total := time.Since(it.StartTime())
	obs.QueryLatency.Observe(total)
	lim := it.Limiter()
	if u := v.usage; u != nil {
		u.queries.Add(1)
		u.results.Add(it.Results())
		if lim != nil {
			u.pages.Add(lim.PagesRead())
			u.records.Add(lim.DecodedRecords())
		}
	}
	var (
		expr string
		hit  bool
		tc   *TraceContext
	)
	switch o := it.FinishObj().(type) {
	case *TraceContext:
		tc = o
		expr, hit = o.Expr, o.CacheHit
		tc.Total = total
		tc.Results = it.Results()
		tc.Err = it.Err()
		if lim != nil {
			tc.PagesRead = lim.PagesRead()
			tc.RecordsDecoded = lim.DecodedRecords()
			tc.NodeCacheHits = lim.NodeCacheHits()
		}
		if tc.traced {
			tc.DocName = v.st.DocName(tc.Doc)
			tc.Root = buildSpanTree(tc.q.plan, it.StepSpans(), it.Results(), int64(total))
		}
	case *Query:
		// The unsampled cache-hit fast path carries the shared Query.
		expr, hit = o.expr, true
	}
	// Fold the run's actual per-step cardinalities against the plan's
	// estimates — every query feeds the cost observatory, not only the
	// sampled ones. Allocation-free on the steady path. A run fed an
	// explicit context node is skipped: the plan's estimates describe a
	// run from the document root.
	var worstOp *plan.Step
	var worstQ float64
	if e.cost != nil && it.Start() == flex.Root {
		worstOp, worstQ = e.cost.fold(it, it.Doc(), expr)
	}
	if e.slow != nil && total >= e.slow.threshold {
		obs.SlowQueries.Inc()
		// A fresh flat record, never the exported trace: the serving
		// layer shifts a captured span tree in place, and a ring entry
		// is never mutated once recorded.
		sq := &obs.QueryTrace{
			Expr:     expr,
			Doc:      v.st.DocName(it.Doc()),
			Start:    it.StartTime(),
			Total:    total,
			Results:  it.Results(),
			CacheHit: hit,
		}
		if err := it.Err(); err != nil {
			sq.Err = err.Error()
		}
		if lim != nil {
			sq.PagesRead = lim.PagesRead()
			sq.RecordsDecoded = lim.DecodedRecords()
			sq.NodeCacheHits = lim.NodeCacheHits()
		}
		if tc != nil {
			sq.Compile = tc.Compile
			if tc.traced {
				sq.ID, sq.Request, sq.Tenant = tc.ID, tc.Request, tc.Tenant
			}
		}
		// Name the worst-misestimated operator so a slow query points
		// straight at the cost-model miss that may have caused it.
		if worstOp != nil && worstQ >= 2 {
			sq.WorstOp = worstOp.Label()
			sq.WorstQErr = worstQ
		}
		e.slow.record(sq)
	}
	if tc != nil && tc.traced {
		if tc.req != nil {
			tc.req.Captured = tc.Export()
		} else if e.flight != nil {
			e.flight.Add(tc.Export())
		}
	}
	if tc != nil && tc.sampled && e.traceSink != nil {
		e.traceSink(tc)
	}
}
