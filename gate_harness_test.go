package vamana

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestGateSpecsPinned is the CI guard on the gates: every spec keeps the
// budget, round and attempt counts it was calibrated with, and
// scripts/check.sh runs every gate with its switch set, so no gate can
// drift or silently drop out of CI.
func TestGateSpecsPinned(t *testing.T) {
	want := map[string]struct {
		stat             gateStat
		rounds, attempts int
		bound            float64
		floor, race      bool
	}{
		"metrics":     {medianOfRatios, 7, 3, 1.05, false, false},
		"governance":  {bestOfRounds, 7, 3, 1.03, false, false},
		"checksum":    {bestOfRounds, 7, 3, 1.03, false, false},
		"trace":       {bestOfRounds, 7, 3, 1.01, false, false},
		"calibration": {bestOfRounds, 7, 3, 1.01, false, false},
		"batch":       {bestOfRounds, 7, 3, 1.5, true, false},
		"mixed":       {bestOfRounds, 3, 4, 1.10, false, true},
		"remote":      {bestOfRounds, 3, 4, 3.0, false, false},
		"serve_obs":   {bestOfRounds, 3, 4, 1.02, false, false},
	}
	script, err := os.ReadFile(filepath.Join("scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(script), "\n")
	if len(gateSpecs) != len(want) {
		t.Errorf("gateSpecs has %d gates, want %d", len(gateSpecs), len(want))
	}
	for _, g := range gateSpecs {
		w, ok := want[g.name]
		if !ok {
			t.Errorf("unexpected gate %q", g.name)
			continue
		}
		if g.stat != w.stat || g.rounds != w.rounds || g.attempts != w.attempts || g.bound != w.bound || g.floor != w.floor {
			t.Errorf("gate %q: %s %d×%d bound %s %v; want %s %d×%d bound %v (floor %v)",
				g.name, g.stat, g.rounds, g.attempts, g.direction(), g.bound, w.stat, w.rounds, w.attempts, w.bound, w.floor)
		}
		run := fmt.Sprintf("-run '^%s$'", g.test)
		if !slices.ContainsFunc(lines, func(l string) bool {
			return strings.HasPrefix(l, g.env()+"=1 go test ") && strings.Contains(l, run) &&
				(!w.race || strings.Contains(l, " -race "))
		}) {
			t.Errorf("scripts/check.sh has no %q line running %s (race %v)", g.env()+"=1 go test", run, w.race)
		}
	}
}

// fakeRounds returns a round function that replays pairs in order.
func fakeRounds(pairs ...[2]float64) func(int) (float64, float64) {
	i := 0
	return func(int) (float64, float64) {
		p := pairs[i%len(pairs)]
		i++
		return p[0], p[1]
	}
}

// TestGateHarnessDecisions feeds synthetic rounds to the harness's
// decision logic.
func TestGateHarnessDecisions(t *testing.T) {
	overhead := gateSpec{name: "fake", stat: bestOfRounds, rounds: 3, attempts: 3, bound: 1.05}

	t.Run("pass on second attempt", func(t *testing.T) {
		rec := overhead.measure(fakeRounds(
			[2]float64{100, 120}, [2]float64{100, 120}, [2]float64{100, 120}, // attempt 1: 1.20
			[2]float64{100, 103}, [2]float64{100, 110}, [2]float64{101, 104}, // attempt 2: 1.03
		), t.Logf)
		if !rec.Pass || rec.Attempts != 2 || len(rec.Ratios) != 2 {
			t.Fatalf("pass=%v attempts=%d ratios=%v; want a pass on attempt 2", rec.Pass, rec.Attempts, rec.Ratios)
		}
		if rec.Ratios[0] != 1.2 || rec.Ratios[1] != 1.03 {
			t.Errorf("ratios = %v, want [1.2 1.03]", rec.Ratios)
		}
		if !slices.Equal(rec.Base, []float64{100, 100, 101}) || !slices.Equal(rec.Cand, []float64{103, 110, 104}) {
			t.Errorf("samples base %v cand %v, want the second attempt's", rec.Base, rec.Cand)
		}
	})

	t.Run("fail on every attempt", func(t *testing.T) {
		rec := overhead.measure(fakeRounds([2]float64{100, 150}), t.Logf)
		if rec.Pass || rec.Attempts != 3 || !slices.Equal(rec.Ratios, []float64{1.5, 1.5, 1.5}) {
			t.Fatalf("pass=%v attempts=%d ratios=%v; want three failed attempts at 1.5", rec.Pass, rec.Attempts, rec.Ratios)
		}
	})

	t.Run("median of ratios vs best of rounds", func(t *testing.T) {
		// Per-round ratios 0.9, 1.05, 1.3: the best sides give 90/100,
		// the median ratio is 1.05.
		rounds := [][2]float64{{100, 90}, {200, 210}, {100, 130}}
		best := gateSpec{name: "fake", stat: bestOfRounds, rounds: 3, attempts: 1, bound: 1.0}
		median := best
		median.stat = medianOfRatios
		if rec := best.measure(fakeRounds(rounds...), t.Logf); !rec.Pass || rec.Ratios[0] != 0.9 {
			t.Errorf("best of rounds: pass=%v ratio=%v, want pass at 0.9", rec.Pass, rec.Ratios)
		}
		if rec := median.measure(fakeRounds(rounds...), t.Logf); rec.Pass || rec.Ratios[0] != 1.05 {
			t.Errorf("median of ratios: pass=%v ratio=%v, want fail at 1.05", rec.Pass, rec.Ratios)
		}
	})

	t.Run("speedup floor", func(t *testing.T) {
		floor := gateSpec{name: "fake", stat: bestOfRounds, rounds: 2, attempts: 1, bound: 1.5, floor: true}
		if rec := floor.measure(fakeRounds([2]float64{300, 100}), t.Logf); !rec.Pass || rec.Ratios[0] != 3 {
			t.Errorf("3x speedup: pass=%v ratio=%v, want pass at 3", rec.Pass, rec.Ratios)
		}
		if rec := floor.measure(fakeRounds([2]float64{120, 100}), t.Logf); rec.Pass || rec.Ratios[0] != 1.2 {
			t.Errorf("1.2x speedup: pass=%v ratio=%v, want fail at 1.2", rec.Pass, rec.Ratios)
		}
	})

	t.Run("record fields", func(t *testing.T) {
		floor := gateSpec{name: "fake", stat: bestOfRounds, rounds: 2, attempts: 2, bound: 1.5, floor: true}
		line, err := json.Marshal(floor.measure(fakeRounds([2]float64{300, 100}), t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		want := map[string]any{
			"gate": "fake", "statistic": "best_of_rounds", "direction": "at_least", "bound": 1.5,
			"rounds": 2.0, "attempts": 1.0, "ratios": []any{3.0}, "base": []any{300.0, 300.0},
			"cand": []any{100.0, 100.0}, "pass": true, "go_version": runtime.Version(),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH, "num_cpu": float64(runtime.NumCPU()),
			"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("record\n got %v\nwant %v", got, want)
		}
	})
}
