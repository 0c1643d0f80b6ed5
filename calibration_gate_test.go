package vamana

import (
	"testing"

	"vamana/internal/xmark"
)

// TestCalibrationOverheadGate asserts that the cost-model observatory's
// every-query fold costs the warm serving path at most 1%, and — the
// stronger claim, immune to wall-clock noise — that it allocates
// nothing: a warm cache-hit query on a database with the observatory on
// (the default) must cost no more allocations than one with it disabled.
// The fold's only allocating path is recording a new per-class worst
// offender, and the warm-up drives every class's maximum to its fixed
// point first: repeat runs of a fixed workload produce identical
// per-class q-errors, so no new maximum can appear during measurement.
// Single-goroutine drain loops, alternating best-of-rounds (see
// gateSpecs).
func TestCalibrationOverheadGate(t *testing.T) {
	g := gate(t, "calibration")
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(32 << 10), Seed: 51})
	offDB, offDoc := openWarm(t, Options{}, benchKnobs{noCostObservatory: true}, src, 3, workloadExprs)
	onDB, onDoc := openWarm(t, Options{}, benchKnobs{}, src, 3, workloadExprs) // observatory on by default
	pinAllocs(t, "//person/address", offDB, offDoc, onDB, onDoc)
	g.run(t, alternating(queryNs(offDB, offDoc, workloadExprs), queryNs(onDB, onDoc, workloadExprs)))
}
