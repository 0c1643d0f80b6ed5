package vamana

import (
	"testing"

	"vamana/internal/pager"
)

// Test seams for the external-package tests in this directory
// (package vamana_test), which import internal/serve and so cannot live
// in package vamana.

// StartGate is gate: it skips t unless the named gate is switched on.
var StartGate = gate

// RunGate is gateSpec.run.
func RunGate(g gateSpec, t *testing.T, round func(r int) (base, cand float64)) { g.run(t, round) }

// P95 is p95.
var P95 = p95

// OpenBackend opens a database on b instead of a file (fault injection).
func OpenBackend(b pager.Backend) (*DB, error) { return openWith(Options{}, benchKnobs{backend: b}) }
