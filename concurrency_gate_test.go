package vamana

import (
	"sync"
	"testing"
	"time"
)

// mixedGateExprs is the paper workload Q1-Q5 — the same shapes the
// figure benchmarks and the serving sweep use.
var mixedGateExprs = []string{
	"//person/address",                        // Q1
	"//person[profile/age]/name",              // Q2
	"/site/regions/africa/item/description",   // Q3
	"//people/person[address and phone]/name", // Q4
	"//open_auction/bidder/increase",          // Q5
}

// TestMixedReadWriteGate asserts the tentpole's concurrency claim: a
// reader's tail latency must not degrade while a writer commits
// transactions concurrently. Readers serve the paper workload through
// DB.Query (which rides the shared snapshot when one is installed and
// the live store otherwise); the writer commits DB.Update transactions
// on a separate scratch document at a fixed pace, so the gate isolates
// concurrency interference — lock waits, MVCC copy-on-write overhead,
// snapshot install and reclamation — from the intentional
// plan-recompile that mutating a queried document causes (statistics
// freshness is a feature, not interference).
//
// The writer is paced (writerPace between commits) rather than
// spinning: an unthrottled in-memory commit loop is pure CPU, and on a
// box with few cores — check.sh runs this under -race; the gate record's
// num_cpu and gomaxprocs say how many the run had — it simply timeshares
// the reader's core away, measuring the scheduler instead of the engine.
// The pace is chosen so that the probability of a query overlapping a
// commit burst (about (query duration + commit duration) / pace) sits
// below the 5% tail that p95 inspects: a commit costs ~2ms of CPU under
// -race, queries run ~4ms, so at 150ms pace roughly 4% of queries share
// their core slice with a commit and the p95 isolates what the snapshot
// design actually promises — readers do not *wait* on writers. A
// regression that makes readers block behind commits or serializes them
// against the live store shifts the whole latency distribution and
// still trips the bound. Every mixed round spans several commits, each
// installing (and reclaiming) a shared snapshot under the reader's feet.
//
// Each round measures the reader solo, then beside the writer;
// best-of-rounds p95 (see gateSpecs). The bound is 1.10x — within the
// scheduler noise of an uncontended run, per the gate-noise calibration
// in EXPERIMENTS.md.
func TestMixedReadWriteGate(t *testing.T) {
	g := gate(t, "mixed")
	const (
		queriesPerRound = 250
		writerPace      = 150 * time.Millisecond // ~7 committed txns/s
	)

	db := openDB(t)
	doc := loadAuction(t, db, 0.02)
	scratch, err := db.LoadXMLString("scratch", `<pad><slot/></pad>`)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every plan (and the probe memo) before measuring.
	for _, expr := range mixedGateExprs {
		res, err := db.Query(doc, expr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Keys(); err != nil {
			t.Fatal(err)
		}
	}

	runReader := func() float64 {
		lats := make([]time.Duration, 0, queriesPerRound)
		for i := 0; i < queriesPerRound; i++ {
			expr := mixedGateExprs[i%len(mixedGateExprs)]
			begin := time.Now()
			res, err := db.Query(doc, expr)
			if err != nil {
				t.Fatal(err)
			}
			for res.Next() {
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			lats = append(lats, time.Since(begin))
		}
		return p95(lats)
	}
	withWriter := func() float64 {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(writerPace)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				// One committed transaction per lap: insert and delete,
				// so the scratch document never grows but every lap
				// publishes a new version and installs a fresh shared
				// snapshot.
				if err := db.Update(func(tx *Txn) error {
					k, err := tx.InsertElement(scratch, "a", -1, "w")
					if err != nil {
						return err
					}
					return tx.DeleteSubtree(scratch, k)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		defer func() {
			close(stop)
			wg.Wait()
		}()
		return runReader()
	}

	g.run(t, func(int) (solo, mixed float64) {
		solo = runReader()
		mixed = withWriter()
		return solo, mixed
	})
}
