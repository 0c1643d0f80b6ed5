package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"vamana/internal/mass"
	"vamana/internal/obs"
)

// RequestTrace carries a serving-layer request's identity into the
// engine and the finished engine trace back out. The serving layer
// attaches one to the query context (WithRequestTrace); a traced run
// stamps the request ID and tenant into its exported trace and, instead
// of recording into the flight ring directly, hands the export back via
// Captured — the serving layer grafts its own spans (queue wait, TTFB,
// stream drain) above the engine's root and records the combined tree
// (Engine.RecordTrace), so the ring holds one entry per request, not
// two.
type RequestTrace struct {
	// ID is the wire request ID (X-Vamana-Request), Tenant the tenant
	// the request billed to.
	ID     string
	Tenant string
	// Captured receives the engine's exported trace at query finish
	// when the run was traced; nil otherwise. Written by the finish
	// hook, read by the request goroutine after the iterator is closed
	// — the exactly-once finish contract orders the two.
	Captured *obs.QueryTrace
}

// requestTraceKey keys the context attachment of a *RequestTrace.
type requestTraceKey struct{}

// WithRequestTrace returns a context carrying rt; engine runs under it
// join their traces to the request (see RequestTrace).
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return context.WithValue(ctx, requestTraceKey{}, rt)
}

// requestTraceFrom extracts the request attachment, nil when absent.
// Only consulted on traced runs, so the untraced hot path never pays
// the context-value walk.
func requestTraceFrom(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(requestTraceKey{}).(*RequestTrace)
	return rt
}

// TraceContext is a per-query execution trace, produced for 1-in-N
// queries on any read path when sampling is configured
// (Options.TraceEvery). Sampled queries carry their TraceContext through
// the iterator's finish hook; unsampled cache-hit queries allocate
// nothing.
type TraceContext struct {
	// ID is the engine-assigned trace sequence number, unique per engine
	// lifetime; a slow-query entry carries it to link to its
	// flight-recorder trace.
	ID       uint64
	Expr     string
	Doc      mass.DocID
	DocName  string // resolved document name, set when spans are recorded
	Start    time.Time
	CacheHit bool          // plan came from the plan cache
	Compile  time.Duration // time to produce the plan (lookup or compile)
	Total    time.Duration // end-to-end, set when the iterator finishes
	Results  uint64        // result tuples delivered
	Err      error         // execution error, if any

	// Whole-query storage consumption, filled at finish from the run's
	// accounting limiter (zero when the run was ungoverned).
	PagesRead      uint64
	RecordsDecoded uint64
	NodeCacheHits  uint64

	// Root is the assembled operator span tree — present when the run
	// recorded spans (sampled, or the flight recorder is on).
	Root *obs.Span

	// Request and Tenant tie the trace to the serving-layer request it
	// ran under (empty outside vamanad). req, when non-nil, receives the
	// exported trace at finish instead of the flight ring — see
	// RequestTrace.
	Request string
	Tenant  string
	req     *RequestTrace

	// sampled distinguishes a 1-in-N trace (delivered to TraceSink and
	// counted) from a TraceContext allocated only to carry cache-miss
	// detail to the slow-query log.
	sampled bool
	// traced marks a run that recorded executor spans; queryFinished
	// assembles Root from them.
	traced bool
	// q is the executed query, kept so span assembly can walk its plan.
	q *Query
}

// slowRingCap bounds the in-memory slow-query ring. Old entries are
// overwritten; the log writer (Options.SlowQueryLog) sees every entry.
const slowRingCap = 128

// slowLog collects queries exceeding the configured threshold: a bounded
// ring for programmatic access plus an optional line-oriented writer.
// Entries are flat records without span trees (Root is nil); a traced
// entry links to its flight-recorder trace by ID.
type slowLog struct {
	threshold time.Duration
	w         io.Writer
	ring      *obs.Ring[*obs.QueryTrace]
}

func (l *slowLog) record(t *obs.QueryTrace) {
	l.ring.Add(t)
	if l.w == nil {
		return
	}
	var suffix string
	if t.WorstOp != "" {
		suffix = fmt.Sprintf(" worstop=%q qerr=%.1f", t.WorstOp, t.WorstQErr)
	}
	if t.Err != "" {
		suffix += fmt.Sprintf(" err=%q", t.Err)
	}
	fmt.Fprintf(l.w, "slow query: %s doc=%s total=%v results=%d cached=%v pages=%d records=%d cachehits=%d%s\n",
		t.Expr, t.Doc, t.Total, t.Results, t.CacheHit, t.PagesRead, t.RecordsDecoded, t.NodeCacheHits, suffix)
}
