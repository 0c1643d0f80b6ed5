package vamana

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana/internal/plan"
)

// traceOne runs expr through the serving path on a flight-recorded DB
// and returns its newest trace.
func traceOne(t *testing.T, db *DB, doc *Document, expr string) *QueryTrace {
	t.Helper()
	drainCount(t, db, doc, expr)
	traces := db.RecentTraces()
	if len(traces) == 0 {
		t.Fatalf("no trace recorded for %s", expr)
	}
	tr := traces[0]
	if tr.Expr != expr {
		t.Fatalf("newest trace is %q, want %q", tr.Expr, expr)
	}
	return tr
}

// TestSpanTreeInvariants runs the paper's workload queries Q1-Q5 on a
// flight-recorded database and checks the structural invariants of each
// recorded span tree: children nest within their parents' intervals,
// rows-out of a context child equals rows-in of its parent step, the
// root's output equals the query's result count, and the per-operator
// estimates embedded in the spans match a fresh Estimate of the same
// expression.
func TestSpanTreeInvariants(t *testing.T) {
	db, err := Open(Options{FlightRecorderSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.01)

	for i, expr := range workloadExprs {
		tr := traceOne(t, db, doc, expr)
		if tr.Root == nil {
			t.Fatalf("Q%d: trace has no span tree", i+1)
		}
		if tr.Root.StartNS != 0 || tr.Root.EndNS <= 0 {
			t.Errorf("Q%d: root span [%d,%d] should cover the run from 0", i+1, tr.Root.StartNS, tr.Root.EndNS)
		}
		if tr.Root.Out != tr.Results {
			t.Errorf("Q%d: root span out=%d, trace results=%d", i+1, tr.Root.Out, tr.Results)
		}

		// Nesting: every child interval lies within its parent's.
		var checkNest func(s *Span)
		checkNest = func(s *Span) {
			if s.EndNS < s.StartNS {
				t.Errorf("Q%d: span %s ends before it starts [%d,%d]", i+1, s.Name, s.StartNS, s.EndNS)
			}
			for _, c := range s.Children {
				if c.StartNS < s.StartNS || c.EndNS > s.EndNS {
					t.Errorf("Q%d: span %s [%d,%d] escapes parent %s [%d,%d]",
						i+1, c.Name, c.StartNS, c.EndNS, s.Name, s.StartNS, s.EndNS)
				}
				checkNest(c)
			}
		}
		checkNest(tr.Root)

		// Context chain: each step consumes exactly what its context
		// child produced. The chain is the first-child path of axis
		// spans below the root (predicate subtrees are "pred" spans).
		cur := tr.Root
		for len(cur.Children) > 0 && cur.Children[0].Kind == "axis" {
			child := cur.Children[0]
			if cur.Kind == "axis" && cur.In != child.Out {
				t.Errorf("Q%d: step %s in=%d != context child %s out=%d",
					i+1, cur.Name, cur.In, child.Name, child.Out)
			}
			cur = child
		}

		// Estimates: the spans carry the executed (cached, optimized)
		// plan's cost annotations; a fresh Estimate of the same compiled
		// query against the same statistics must agree operator by
		// operator.
		q, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
		if err != nil {
			t.Fatalf("Q%d compile: %v", i+1, err)
		}
		p, err := q.q.Estimate(doc.id)
		if err != nil {
			t.Fatalf("Q%d estimate: %v", i+1, err)
		}
		var spans []*Span
		var flatten func(s *Span)
		flatten = func(s *Span) {
			spans = append(spans, s)
			for _, c := range s.Children {
				flatten(c)
			}
		}
		flatten(tr.Root)
		ops := p.Operators()
		if len(ops) != len(spans) {
			t.Fatalf("Q%d: %d spans for %d plan operators", i+1, len(spans), len(ops))
		}
		for j, op := range ops {
			sp := spans[j]
			if sp.Name != op.Label() {
				t.Errorf("Q%d op %d: span %q, plan operator %q", i+1, j, sp.Name, op.Label())
				continue
			}
			c := *plan.CostOf(op)
			if !sp.Estimated || sp.EstIn != c.In || sp.EstOut != c.Out {
				t.Errorf("Q%d %s: span est in=%d out=%d (estimated=%v), Estimate says in=%d out=%d",
					i+1, sp.Name, sp.EstIn, sp.EstOut, sp.Estimated, c.In, c.Out)
			}
		}
	}
}

// TestFlightRecorderConcurrent hammers the recorder from writer
// goroutines (queries) while readers snapshot and walk the traces —
// meaningful under -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	db, err := Open(Options{FlightRecorderSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address") // warm the plan cache

	const writers, readers, iters = 4, 2, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				expr := workloadExprs[(w+i)%len(workloadExprs)]
				res, err := db.Query(doc, expr)
				if err != nil {
					errs <- err
					return
				}
				for res.Next() {
				}
				if err := res.Err(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, tr := range db.RecentTraces() {
					var walk func(s *Span) int64
					walk = func(s *Span) int64 {
						d := s.EndNS - s.StartNS
						for _, c := range s.Children {
							d += walk(c)
						}
						return d
					}
					_ = walk(tr.Root)
					var buf bytes.Buffer
					_ = tr.WriteTree(&buf)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	traces := db.RecentTraces()
	if len(traces) != 8 {
		t.Fatalf("recorder holds %d traces, want 8 (full ring)", len(traces))
	}
	for _, tr := range traces {
		if tr.Root == nil || tr.Results == 0 {
			t.Errorf("incomplete recorded trace: %+v", tr)
		}
	}
}

// TestSlowQueryStorageDeltas drives the slow threshold to 1ns so every
// query lands in the ring, and checks that entries carry per-query
// storage consumption and that the log line includes it.
func TestSlowQueryStorageDeltas(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
		FlightRecorderSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}
	slow := db.SlowQueries()
	if len(slow) < len(workloadExprs) {
		t.Fatalf("got %d slow entries, want >= %d", len(slow), len(workloadExprs))
	}
	var anyRecords bool
	for _, sq := range slow[:len(workloadExprs)] {
		// Index traversal always touches B+-tree nodes; in-memory stores
		// read no pages, so cache hits are the reliable signal.
		if sq.NodeCacheHits == 0 {
			t.Errorf("slow entry %q has zero node-cache hits: %+v", sq.Expr, sq)
		}
		if sq.ID == 0 {
			t.Errorf("slow entry %q carries no trace id (flight recorder is on)", sq.Expr)
		}
		if sq.Root != nil {
			t.Errorf("slow entry %q carries a span tree; it links to its trace by ID", sq.Expr)
		}
		anyRecords = anyRecords || sq.RecordsDecoded > 0
	}
	if !anyRecords {
		t.Error("no slow entry recorded decoded records across Q1-Q5")
	}
	if traces := db.RecentTraces(); len(traces) == 0 || traces[0].ID != slow[0].ID || traces[0].Root == nil {
		t.Errorf("newest slow entry (id %d) does not link to the newest flight-recorder trace", slow[0].ID)
	}
	line := buf.String()
	for _, want := range []string{"pages=", "records=", "cachehits="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %q:\n%s", want, line)
		}
	}
}

// TestDebugEndpoints exercises every /debug/vamana endpoint over
// httptest and checks the JSON shapes.
func TestDebugEndpoints(t *testing.T) {
	db, err := Open(Options{
		SlowQueryThreshold: time.Nanosecond,
		FlightRecorderSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address")
	drainCount(t, db, doc, "//person/address")

	h := db.DebugHandler("/debug/vamana")
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	var metrics struct {
		Counters    map[string]uint64  `json:"counters"`
		RatesPerSec map[string]float64 `json:"rates_per_sec"`
	}
	if err := json.Unmarshal(get("/debug/vamana/metrics").Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if metrics.Counters["vamana_exec_runs_total"] == 0 {
		t.Error("metrics counters missing vamana_exec_runs_total")
	}
	if _, ok := metrics.Counters["vamana_query_latency_ns_p99"]; !ok {
		t.Error("metrics counters missing histogram p99")
	}

	var slow []map[string]any
	if err := json.Unmarshal(get("/debug/vamana/slow").Body.Bytes(), &slow); err != nil {
		t.Fatalf("slow: %v", err)
	}
	if len(slow) == 0 {
		t.Error("slow endpoint returned no entries at a 1ns threshold")
	} else {
		for _, key := range []string{"expr", "total_ns", "results", "cache_hit", "pages_read", "records_decoded", "node_cache_hits"} {
			if _, ok := slow[0][key]; !ok {
				t.Errorf("slow entry missing JSON field %q: %v", key, slow[0])
			}
		}
	}

	var traces []*QueryTrace
	if err := json.Unmarshal(get("/debug/vamana/traces").Body.Bytes(), &traces); err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(traces) == 0 || traces[0].Root == nil {
		t.Fatalf("traces endpoint returned no span trees: %d entries", len(traces))
	}
	var one []*QueryTrace
	if err := json.Unmarshal(get("/debug/vamana/traces?n=1").Body.Bytes(), &one); err != nil {
		t.Fatalf("traces?n=1: %v", err)
	}
	if len(one) != 1 {
		t.Errorf("traces?n=1 returned %d entries", len(one))
	}
	if body := get("/debug/vamana/traces?format=text").Body.String(); !strings.Contains(body, "trace ") {
		t.Errorf("text traces missing header lines:\n%s", body)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/vamana/traces?format=chrome").Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome traces: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome traces contain no events")
	}

	var cache CacheStats
	if err := json.Unmarshal(get("/debug/vamana/plancache").Body.Bytes(), &cache); err != nil {
		t.Fatalf("plancache: %v", err)
	}
	if cache.Hits == 0 {
		t.Error("plancache endpoint shows no hits after a repeated query")
	}

	var docs []struct {
		Name  string `json:"name"`
		Nodes uint64 `json:"nodes"`
	}
	if err := json.Unmarshal(get("/debug/vamana/docs").Body.Bytes(), &docs); err != nil {
		t.Fatalf("docs: %v", err)
	}
	if len(docs) != 1 || docs[0].Name != "auction" || docs[0].Nodes == 0 {
		t.Errorf("docs endpoint: %+v", docs)
	}
}

// TestHistogramQuantileExposition checks that registered histograms emit
// p50/p95/p99 gauges in the text exposition and in Snapshot.
func TestHistogramQuantileExposition(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address")

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vamana_query_latency_ns_p50",
		"vamana_query_latency_ns_p95",
		"vamana_query_latency_ns_p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
