package vamana

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"vamana/internal/obs"
)

// TestReadPathParity runs the same query N times through every read
// path — DB.Query before any Update, DB.Query after an empty Update
// (served from the shared auto-snapshot), Snapshot.Query, and
// Prepare→Run — and checks that every observability surface advances by
// exactly N queries on each: slow-log entries, cost-observatory
// observations, TraceSink calls, flight-recorder entries, and the query
// latency histogram.
func TestReadPathParity(t *testing.T) {
	const n = 5
	var sinkCalls atomic.Uint64
	db, err := Open(Options{
		SlowQueryThreshold: time.Nanosecond,
		TraceEvery:         1,
		TraceSink:          func(*TraceContext) { sinkCalls.Add(1) },
		FlightRecorderSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	const expr = "//book/title"

	type surfaces struct {
		slow, flight        int
		costObs, sink, hist uint64
	}
	read := func() surfaces {
		prof, ok := db.CostProfile()
		if !ok {
			t.Fatal("cost observatory unavailable")
		}
		return surfaces{
			slow:    len(db.SlowQueries()),
			flight:  len(db.RecentTraces()),
			costObs: prof.Observations,
			sink:    sinkCalls.Load(),
			hist:    obs.QueryLatency.Snapshot().Count,
		}
	}
	drain := func(label string, run func() (*Results, error)) {
		t.Helper()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		keys, err := res.Keys()
		if err != nil || len(keys) != 2 {
			t.Fatalf("%s: %d results, %v; want 2", label, len(keys), err)
		}
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	q, err := db.Prepare(expr, WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}

	// Warm every path's plan cache so each measured run is a cache hit.
	query := func() (*Results, error) { return db.Query(doc, expr) }
	drain("warm", query)
	drain("warm snapshot", func() (*Results, error) { return sn.Query(doc, expr) })

	var costPerQuery uint64
	for _, p := range []struct {
		name  string
		setup func()
		run   func() (*Results, error)
	}{
		{"DB.Query before Update", nil, query},
		{"DB.Query after empty Update", func() {
			if err := db.Update(func(*Txn) error { return nil }); err != nil {
				t.Fatal(err)
			}
			drain("warm shared", query)
		}, query},
		{"Snapshot.Query", nil, func() (*Results, error) { return sn.Query(doc, expr) }},
		{"Prepare→Run", nil, func() (*Results, error) { return q.Run(context.Background(), doc) }},
	} {
		if p.setup != nil {
			p.setup()
		}
		before := read()
		for i := 0; i < n; i++ {
			drain(p.name, p.run)
		}
		after := read()
		if d := after.slow - before.slow; d != n {
			t.Errorf("%s: %d slow-log entries, want %d", p.name, d, n)
		}
		if d := after.flight - before.flight; d != n {
			t.Errorf("%s: %d flight-recorder entries, want %d", p.name, d, n)
		}
		if d := after.sink - before.sink; d != n {
			t.Errorf("%s: %d TraceSink calls, want %d", p.name, d, n)
		}
		if d := after.hist - before.hist; d != n {
			t.Errorf("%s: latency histogram advanced %d, want %d", p.name, d, n)
		}
		d := after.costObs - before.costObs
		if costPerQuery == 0 {
			// The optimized plan carries estimates on every step, so the
			// first path fixes the per-query observation count.
			if d == 0 || d%n != 0 {
				t.Fatalf("%s: %d cost observations for %d queries", p.name, d, n)
			}
			costPerQuery = d / n
		} else if d != n*costPerQuery {
			t.Errorf("%s: %d cost observations, want %d (%d per query)", p.name, d, n*costPerQuery, costPerQuery)
		}
	}

	// A run from an explicit context node is slow-logged like any other
	// but skips the cost fold: the plan's estimates describe a run from
	// the document root.
	books, err := db.Query(doc, "//book")
	if err != nil {
		t.Fatal(err)
	}
	bookKeys, err := books.Keys()
	if err != nil || len(bookKeys) == 0 {
		t.Fatalf("//book: %v, %v", bookKeys, err)
	}
	rel, err := db.Prepare("title", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	before := read()
	res, err := rel.Run(context.Background(), doc, From(bookKeys[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := res.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("From run: %d results, %v; want 1", len(keys), err)
	}
	after := read()
	if after.slow != before.slow+1 {
		t.Errorf("From run: %d slow-log entries, want 1", after.slow-before.slow)
	}
	if after.costObs != before.costObs {
		t.Errorf("From run fed %d cost observations, want 0", after.costObs-before.costObs)
	}
}
