package vamana

import (
	"testing"

	"vamana/internal/xmark"
)

// batchGateExprs are scan-dominated drains: their cost is the index
// range scan plus per-tuple delivery, which is exactly what batched
// pulls amortize. The join/reverse-axis workload queries (Q2, Q4) spend
// their time in structural predicates instead and are covered by the
// serving sweep, not this gate.
var batchGateExprs = []string{
	"//name",
	"//person",
	"//person/address",
	"/site/people/person",
}

// TestBatchThroughputGate asserts that batch-at-a-time execution keeps
// paying for itself: the default-batch engine must drain scan-heavy
// shapes at least 1.5x faster than the same engine pinned to
// execution batch 1 (tuple-at-a-time pull cadence). Both sides run the
// identical operator tree — the ratio isolates precisely the per-pull
// amortization this engine's vectorized executor exists to provide, so
// a regression here means someone re-introduced per-tuple overhead on
// the hot path. Single-goroutine drain loops, alternating best-of-rounds
// (see gateSpecs).
func TestBatchThroughputGate(t *testing.T) {
	g := gate(t, "batch")
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(1 << 20), Seed: 51})
	tupleDB, tupleDoc := openWarm(t, Options{}, benchKnobs{execBatch: 1}, src, 1, batchGateExprs)
	batchedDB, batchedDoc := openWarm(t, Options{}, benchKnobs{}, src, 1, batchGateExprs)
	g.run(t, alternating(queryNs(tupleDB, tupleDoc, batchGateExprs), queryNs(batchedDB, batchedDoc, batchGateExprs)))
}
