package vamana

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"vamana/internal/xmark"
)

// TestChecksumOverheadGate asserts that CRC32C page verification costs
// the warm-cache serving path at most 3% over the same store opened with
// DisableChecksumVerify (the seed pager's behavior: raw reads, no
// trailer check).
//
// Both stores run under a constrained page-cache budget so warm queries
// keep missing the node cache and issuing real pager reads — with the
// default budget the working set is fully cached after warm-up and the
// gate would measure nothing. Methodology follows the governance gate:
// single-goroutine loops, interleaved rounds, best-of-rounds comparison
// (noise on a shared machine is additive, so the minimum converges to
// each path's true cost), and multiple attempts so only a regression
// that exceeds the budget every time fails. Skipped unless
// VAMANA_CHECKSUM_GATE is set — scripts/check.sh runs it.
func TestChecksumOverheadGate(t *testing.T) {
	if os.Getenv("VAMANA_CHECKSUM_GATE") == "" {
		t.Skip("set VAMANA_CHECKSUM_GATE=1 to run the checksum-overhead gate")
	}
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(256 << 10), Seed: 51})
	open := func(name string, disable bool) (*DB, *Document) {
		db, err := openWith(Options{
			Path:       filepath.Join(t.TempDir(), name),
			CachePages: 64, // keep warm queries reading through the pager
		}, benchKnobs{noChecksumVerify: disable})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		doc, err := db.LoadXMLString("auction", src)
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range workloadExprs {
			drainCount(t, db, doc, expr)
		}
		return db, doc
	}
	verDB, verDoc := open("verified.vam", false)
	rawDB, rawDoc := open("raw.vam", true)

	loop := func(db *DB, doc *Document) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := db.Query(doc, workloadExprs[i%len(workloadExprs)])
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

	measure(verDB, verDoc) // warm-up round, discarded
	const (
		rounds   = 7
		attempts = 3
		budget   = 1.03
	)
	var ratio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		rawBest, verBest := math.MaxFloat64, math.MaxFloat64
		var raws, vers []float64
		for i := 0; i < rounds; i++ {
			var raw, ver float64
			if i%2 == 0 {
				raw, ver = measure(rawDB, rawDoc), measure(verDB, verDoc)
			} else {
				ver, raw = measure(verDB, verDoc), measure(rawDB, rawDoc)
			}
			raws, vers = append(raws, raw), append(vers, ver)
			rawBest, verBest = min(rawBest, raw), min(verBest, ver)
		}
		ratio = verBest / rawBest
		t.Logf("attempt %d: warm serving ns/op unverified %v (best %.0f), verified %v (best %.0f), best-of-rounds ratio %.3f",
			attempt, raws, rawBest, vers, verBest, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("checksum verification overhead %.1f%% exceeds the 3%% budget on all %d attempts", 100*(ratio-1), attempts)
}
