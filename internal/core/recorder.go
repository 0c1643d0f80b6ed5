package core

// The flight recorder: a bounded ring of the last N complete query
// traces. Unlike TraceEvery sampling (which picks queries up front) the
// recorder keeps every recent query, so when one trips the slow-query
// threshold or a resource budget its full span tree is already captured
// — the diagnosis is retroactive, no re-run with tracing enabled needed.
// The ring is an obs.Ring of exported traces: one pointer store per
// query, and snapshots copy the pointers, never the trees. Traces are
// immutable once recorded; callers may hold them freely.

import "vamana/internal/obs"

// RecordTrace appends an externally assembled trace to the flight ring.
// The serving layer uses it to record request-level traces — serve-layer
// spans grafted above a captured engine trace (see RequestTrace) — so
// `vamana traces` shows the whole request as one timeline. No-op when
// the recorder is off.
func (e *Engine) RecordTrace(t *obs.QueryTrace) { e.flight.Add(t) }
