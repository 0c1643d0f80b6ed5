package vamana

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The paired-timing harness behind every overhead and throughput gate.
// A gate is one entry of gateSpecs plus a round function that measures
// both sides once: base is the path without the feature under test,
// cand the path with it. The harness owns the rest — the env switch,
// the attempt loop, the statistic, the bound check, the log line, and
// one JSON record per run appended to scripts/out/gates.ndjson, so the
// trajectory of gate ratios is kept, not only pass/fail.
//
// Noise on shared hardware is additive and bursty: a genuine regression
// misses the bound on every attempt, a noise spike does not, so a gate
// fails only when no attempt meets its bound. Gates jitter around ±7%
// on shared hardware; re-run a failing gate alone before calling it a
// regression. The record's num_cpu and gomaxprocs say what machine the
// ratios came from.

// gateStat is how a gate reduces one attempt's rounds to a ratio.
type gateStat string

const (
	// bestOfRounds compares each side's minimum over the rounds: noise
	// only ever adds time, so the minimum converges to the true cost.
	bestOfRounds gateStat = "best_of_rounds"
	// medianOfRatios takes the median of the per-round ratios, which
	// cancels slow drift (CPU frequency, co-tenant load) that moves both
	// sides of a round together.
	medianOfRatios gateStat = "median_of_ratios"
)

// gateSpec is one gate's fixed contract.
type gateSpec struct {
	name     string // record key; the env switch is VAMANA_<NAME>_GATE
	test     string // the test function that runs the gate
	stat     gateStat
	rounds   int
	attempts int
	// bound caps the overhead cand/base from above, or — for a floor
	// gate — the speedup base/cand from below.
	bound float64
	floor bool
}

// gateSpecs lists every gate with its budget. scripts/check.sh runs each
// with its env switch set; TestGateSpecsPinned keeps both from drifting.
var gateSpecs = []gateSpec{
	{"metrics", "TestMetricsOverheadGate", medianOfRatios, 7, 3, 1.05, false},
	{"governance", "TestGovernanceOverheadGate", bestOfRounds, 7, 3, 1.03, false},
	{"checksum", "TestChecksumOverheadGate", bestOfRounds, 7, 3, 1.03, false},
	{"trace", "TestTraceOverheadGate", bestOfRounds, 7, 3, 1.01, false},
	{"calibration", "TestCalibrationOverheadGate", bestOfRounds, 7, 3, 1.01, false},
	{"batch", "TestBatchThroughputGate", bestOfRounds, 7, 3, 1.5, true},
	{"mixed", "TestMixedReadWriteGate", bestOfRounds, 3, 4, 1.10, false},
	{"remote", "TestRemoteOverheadGate", bestOfRounds, 3, 4, 3.0, false},
	{"serve_obs", "TestServeObsOverheadGate", bestOfRounds, 3, 4, 1.02, false},
}

func (g gateSpec) env() string { return "VAMANA_" + strings.ToUpper(g.name) + "_GATE" }

func (g gateSpec) direction() string {
	if g.floor {
		return "at_least"
	}
	return "at_most"
}

// ratio orients one base/cand pair so the bound reads the same way
// whichever side is the cheaper one.
func (g gateSpec) ratio(base, cand float64) float64 {
	if g.floor {
		return base / cand
	}
	return cand / base
}

// gateRecord is one gate run, as appended to scripts/out/gates.ndjson.
type gateRecord struct {
	Gate       string    `json:"gate"`
	Statistic  gateStat  `json:"statistic"`
	Direction  string    `json:"direction"`
	Bound      float64   `json:"bound"`
	Rounds     int       `json:"rounds"`
	Attempts   int       `json:"attempts"` // attempts run
	Ratios     []float64 `json:"ratios"`   // one per attempt
	Base       []float64 `json:"base"`     // the last attempt's rounds
	Cand       []float64 `json:"cand"`
	Pass       bool      `json:"pass"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
}

// gate skips t unless the named gate's env switch is set, and returns
// the gate's spec. Call it first, before building the fixture.
func gate(t *testing.T, name string) gateSpec {
	t.Helper()
	i := slices.IndexFunc(gateSpecs, func(g gateSpec) bool { return g.name == name })
	if i < 0 || gateSpecs[i].test != t.Name() {
		t.Fatalf("no gate %q run by %s in gateSpecs", name, t.Name())
	}
	g := gateSpecs[i]
	if os.Getenv(g.env()) == "" {
		t.Skipf("set %s=1 to run the %s gate", g.env(), name)
	}
	return g
}

// measure runs up to g.attempts attempts of g.rounds rounds each,
// stopping at the first attempt that meets the bound.
func (g gateSpec) measure(round func(r int) (base, cand float64), logf func(string, ...any)) gateRecord {
	rec := gateRecord{
		Gate: g.name, Statistic: g.stat, Direction: g.direction(), Bound: g.bound, Rounds: g.rounds,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for attempt := 1; attempt <= g.attempts && !rec.Pass; attempt++ {
		base, cand := make([]float64, g.rounds), make([]float64, g.rounds)
		for r := range base {
			base[r], cand[r] = round(r)
		}
		var ratio float64
		if g.stat == medianOfRatios {
			ratios := make([]float64, g.rounds)
			for r := range ratios {
				ratios[r] = g.ratio(base[r], cand[r])
			}
			slices.Sort(ratios)
			ratio = ratios[g.rounds/2]
		} else {
			ratio = g.ratio(slices.Min(base), slices.Min(cand))
		}
		rec.Ratios = append(rec.Ratios, ratio)
		rec.Base, rec.Cand = base, cand
		rec.Pass = ratio <= g.bound
		if g.floor {
			rec.Pass = ratio >= g.bound
		}
		logf("%s gate attempt %d: base %.0f, cand %.0f, %s %.3f (bound %s %.2f)",
			g.name, attempt, base, cand, g.stat, ratio, g.direction(), g.bound)
	}
	rec.Attempts = len(rec.Ratios)
	return rec
}

// run measures the gate, records the run and fails t when no attempt
// met the bound.
func (g gateSpec) run(t *testing.T, round func(r int) (base, cand float64)) {
	t.Helper()
	rec := g.measure(round, t.Logf)
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(string(line))
	if err := appendLine(filepath.Join("scripts", "out", "gates.ndjson"), line); err != nil {
		t.Errorf("recording the gate run: %v", err)
	}
	if !rec.Pass {
		t.Errorf("%s gate: %s %.3f misses the bound %s %.2f on all %d attempts",
			g.name, g.stat, rec.Ratios[len(rec.Ratios)-1], g.direction(), g.bound, rec.Attempts)
	}
}

func appendLine(path string, line []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// alternating is the round function of an in-process timing gate: it
// measures base and cand once each per round, swapping which goes first
// every round so drift lands on both sides, after one discarded warm-up
// measurement of cand.
func alternating(base, cand func() float64) func(r int) (float64, float64) {
	cand()
	return func(r int) (b, c float64) {
		if r%2 == 0 {
			b = base()
			c = cand()
		} else {
			c = cand()
			b = base()
		}
		return b, c
	}
}

// drainNs is testing.Benchmark's ns/op for running query over exprs in
// turn and draining each result — from one goroutine, or from
// GOMAXPROCS goroutines when parallel.
func drainNs(parallel bool, exprs []string, query func(expr string) (*Results, error)) float64 {
	drain := func(b *testing.B, i int) {
		res, err := query(exprs[i%len(exprs)])
		if err != nil {
			b.Fatal(err)
		}
		for res.Next() {
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
	return float64(testing.Benchmark(func(b *testing.B) {
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					drain(b, i)
				}
			})
			return
		}
		for i := 0; i < b.N; i++ {
			drain(b, i)
		}
	}).NsPerOp())
}

// queryNs measures drainNs of db.Query over exprs on doc.
func queryNs(db *DB, doc *Document, exprs []string) func() float64 {
	return func() float64 {
		return drainNs(false, exprs, func(expr string) (*Results, error) { return db.Query(doc, expr) })
	}
}

// p95 returns the 95th-percentile latency in nanoseconds, sorting lats
// in place.
func p95(lats []time.Duration) float64 {
	slices.Sort(lats)
	return float64(lats[len(lats)*95/100])
}

// pinAllocs fails t when a warm drain of expr allocates more per query
// on cand than on base — the noise-free form of an overhead claim.
func pinAllocs(t *testing.T, expr string, baseDB *DB, baseDoc *Document, candDB *DB, candDoc *Document) {
	t.Helper()
	allocs := func(db *DB, doc *Document) float64 {
		return testing.AllocsPerRun(50, func() {
			res, err := db.Query(doc, expr)
			if err != nil {
				t.Fatal(err)
			}
			for res.Next() {
			}
		})
	}
	base, cand := allocs(baseDB, baseDoc), allocs(candDB, candDoc)
	t.Logf("warm cache-hit allocs/query: base %.1f, cand %.1f", base, cand)
	if cand > base {
		t.Errorf("the feature allocates on the serving path: %.1f > %.1f allocs/query", cand, base)
	}
}

// openWarm opens a database, loads src as "auction" and drains every
// expr warm times, so plans, probe memos and caches are hot before a
// gate measures.
func openWarm(t *testing.T, opts Options, k benchKnobs, src string, warm int, exprs []string) (*DB, *Document) {
	t.Helper()
	db, err := openWith(opts, k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		for _, expr := range exprs {
			drainCount(t, db, doc, expr)
		}
	}
	return db, doc
}
