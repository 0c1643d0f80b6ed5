package vamana

import (
	"math"
	"os"
	"testing"

	"vamana/internal/xmark"
)

// TestCalibrationOverheadGate asserts that the cost-model observatory's
// every-query fold costs the warm serving path at most 1%, and — the
// stronger claim, immune to wall-clock noise — that it allocates
// nothing: a warm cache-hit query on a database with the observatory on
// (the default) must cost no more allocations than one with it disabled.
// The fold's only allocating path is recording a new per-class worst
// offender, and the warm-up rounds drive every class's maximum to its
// fixed point first.
//
// Methodology matches the trace and governance gates: single-goroutine
// loops, interleaved rounds, best-of-rounds ratio, several attempts so
// only a persistent regression fails. Skipped unless
// VAMANA_CALIBRATION_GATE is set — scripts/check.sh runs it.
func TestCalibrationOverheadGate(t *testing.T) {
	if os.Getenv("VAMANA_CALIBRATION_GATE") == "" {
		t.Skip("set VAMANA_CALIBRATION_GATE=1 to run the calibration-overhead gate")
	}
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(32 << 10), Seed: 51})
	open := func(k benchKnobs) (*DB, *Document) {
		db, err := openWith(Options{}, k)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		doc, err := db.LoadXMLString("auction", src)
		if err != nil {
			t.Fatal(err)
		}
		// Warm both the plan cache and the observatory's worst-offender
		// maxima: repeat runs of a fixed workload produce identical
		// per-class q-errors, so no new maximum (the fold's only
		// allocation) can appear during measurement.
		for i := 0; i < 3; i++ {
			for _, expr := range workloadExprs {
				drainCount(t, db, doc, expr)
			}
		}
		return db, doc
	}
	offDB, offDoc := open(benchKnobs{noCostObservatory: true})
	onDB, onDoc := open(benchKnobs{}) // observatory on by default

	loop := func(db *DB, doc *Document) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expr := workloadExprs[i%len(workloadExprs)]
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
		}
	}
	measure := func(db *DB, doc *Document) float64 {
		return float64(testing.Benchmark(loop(db, doc)).NsPerOp())
	}

	// Allocation pin: the observatory's fold must add zero allocations
	// to the warm cache-hit query.
	const expr = "//person/address"
	offAllocs := testing.AllocsPerRun(50, func() {
		res, _ := offDB.Query(offDoc, expr)
		for res.Next() {
		}
	})
	onAllocs := testing.AllocsPerRun(50, func() {
		res, _ := onDB.Query(onDoc, expr)
		for res.Next() {
		}
	})
	t.Logf("warm cache-hit allocs/query: observatory-off %.1f, observatory-on %.1f", offAllocs, onAllocs)
	if onAllocs > offAllocs {
		t.Errorf("cost observatory allocates on the serving path: %.1f > %.1f allocs/query",
			onAllocs, offAllocs)
	}

	measure(onDB, onDoc) // warm-up round, discarded
	const (
		rounds   = 7
		attempts = 3
		budget   = 1.01
	)
	var ratio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		offBest, onBest := math.MaxFloat64, math.MaxFloat64
		var offs, ons []float64
		for i := 0; i < rounds; i++ {
			var off, on float64
			if i%2 == 0 {
				off, on = measure(offDB, offDoc), measure(onDB, onDoc)
			} else {
				on, off = measure(onDB, onDoc), measure(offDB, offDoc)
			}
			offs, ons = append(offs, off), append(ons, on)
			offBest, onBest = min(offBest, off), min(onBest, on)
		}
		ratio = onBest / offBest
		t.Logf("attempt %d: warm serving ns/op observatory-off %v (best %.0f), on %v (best %.0f), best-of-rounds ratio %.3f",
			attempt, offs, offBest, ons, onBest, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("cost-observatory overhead %.1f%% exceeds the 1%% budget on all %d attempts", 100*(ratio-1), attempts)
}
