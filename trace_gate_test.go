package vamana

import (
	"testing"

	"vamana/internal/xmark"
)

// TestTraceOverheadGate asserts that the tracing layer's presence costs
// the unsampled warm serving path at most 1%. The engine before span
// recording existed cannot be rebuilt inside one test process, so the
// gate measures its in-process equivalent: a database opened with
// tracing configured but sampling never firing (TraceEvery far beyond
// the run count, no flight recorder) against a database with no tracing
// configured at all. The unsampled path is the baseline path plus the
// per-run trace branches, so their ratio bounds exactly the cost this
// gate exists to cap. An allocation pin checks the stronger claim
// directly: the unsampled warm cache-hit query allocates no more than
// the untraced one. Single-goroutine drain loops, alternating
// best-of-rounds (see gateSpecs).
func TestTraceOverheadGate(t *testing.T) {
	g := gate(t, "trace")
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(32 << 10), Seed: 51})
	baseDB, baseDoc := openWarm(t, Options{}, benchKnobs{}, src, 1, workloadExprs)
	// Sampling configured but unreachable: the hot path takes the
	// trace-aware branches every query yet never records a span.
	unsampledDB, unsampledDoc := openWarm(t, Options{TraceEvery: 1 << 30}, benchKnobs{}, src, 1, workloadExprs)
	pinAllocs(t, "//person/address", baseDB, baseDoc, unsampledDB, unsampledDoc)
	g.run(t, alternating(queryNs(baseDB, baseDoc, workloadExprs), queryNs(unsampledDB, unsampledDoc, workloadExprs)))
}
