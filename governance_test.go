package vamana

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vamana/internal/obs"
	"vamana/internal/xmark"
)

// heavyExpr produces a large result set on XMark documents: every name
// element, via an ancestor step that touches many records. Used where a
// query must run long enough for governance to interrupt it.
const heavyExpr = "/descendant::name/parent::*/self::person/address"

// TestQueryContextDeadline is the ISSUE's acceptance scenario: a 1ms
// deadline on a full-size XMark document kills the query in bounded time
// with the engine's typed error, which also satisfies the context-level
// check.
func TestQueryContextDeadline(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := db.QueryContext(ctx, doc, heavyExpr)
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("1ms deadline on a full XMark doc: query finished without error")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not satisfy errors.Is(err, context.DeadlineExceeded)", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline enforcement took %v, want bounded time", elapsed)
	}
}

// TestQueryTimeoutOption checks the per-query wall-clock budget without
// any context deadline.
func TestQueryTimeoutOption(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.1)

	res, err := db.QueryContext(context.Background(), doc, heavyExpr,
		WithTimeout(time.Millisecond))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestCancelMidStream starts a streaming query, pulls a few results,
// cancels the context, and checks the iterator stops within one
// amortized check interval, with the canceled error at both levels.
func TestCancelMidStream(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.05)

	canceledBefore := obs.QueriesCanceled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.QueryContext(ctx, doc, heavyExpr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !res.Next() {
			t.Fatalf("query produced only %d results before cancel; need a bigger fixture", i)
		}
	}
	cancel()
	// The executor polls cancellation every 256 units of work (tuples
	// pulled or index entries scanned), so the stream must die well within
	// a few hundred further pulls.
	extra := 0
	for res.Next() {
		if extra++; extra > 1024 {
			t.Fatal("iterator still yielding 1024 results after cancel")
		}
	}
	err = res.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not satisfy errors.Is(err, context.Canceled)", err)
	}
	if got := obs.QueriesCanceled.Value() - canceledBefore; got != 1 {
		t.Errorf("QueriesCanceled advanced by %d, want 1", got)
	}
}

// TestPreCanceledContext checks that a context canceled before the call
// fails fast: no plan compiled, no index touched.
func TestPreCanceledContext(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	before := db.StorageMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.QueryContext(ctx, doc, "//person/address/city")
	if err == nil {
		res.Close()
		t.Fatal("pre-canceled context: QueryContext succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled / context.Canceled", err)
	}
	after := db.StorageMetrics()
	if d := after.Index.Seeks - before.Index.Seeks; d != 0 {
		t.Errorf("pre-canceled query performed %d index seeks, want 0", d)
	}
	if d := after.Pager.Reads - before.Pager.Reads; d != 0 {
		t.Errorf("pre-canceled query read %d pages, want 0", d)
	}
}

// TestBudgetMaxResults checks that exactly MaxResults results stream out
// and materializing the next one fails with the typed budget error.
func TestBudgetMaxResults(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	budgetBefore := obs.QueriesBudgetExceeded.Value()
	res, err := db.QueryContext(context.Background(), doc, "//person/address",
		WithMaxResults(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if n != 3 {
		t.Errorf("delivered %d results under WithMaxResults(3), want exactly 3", n)
	}
	err = res.Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v is not a *BudgetError", err)
	}
	if be.Budget != "results" || be.Limit != 3 || be.Used != 4 {
		t.Errorf("BudgetError = %+v, want {results 3 4}", be)
	}
	if got := obs.QueriesBudgetExceeded.Value() - budgetBefore; got != 1 {
		t.Errorf("QueriesBudgetExceeded advanced by %d, want 1", got)
	}
}

// TestBudgetMaxDecodedRecords trips the record-decode budget on a query
// whose filters must decode clustered records.
func TestBudgetMaxDecodedRecords(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	res, err := db.QueryContext(context.Background(), doc, heavyExpr,
		WithMaxDecodedRecords(10))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *BudgetError", err)
	}
	if be.Budget != "decoded-records" || be.Limit != 10 {
		t.Errorf("BudgetError = %+v, want budget decoded-records limit 10", be)
	}
}

// TestBudgetMaxPagesRead trips the page-read budget. Page charges happen
// only on node-cache misses, and in-memory stores never evict, so this
// needs a file-backed store with the node cache squeezed to its floor —
// the document's working set then cannot fit and the query must fault
// pages back in.
func TestBudgetMaxPagesRead(t *testing.T) {
	db, err := Open(Options{
		Path:       filepath.Join(t.TempDir(), "governed.vam"),
		CachePages: 1, // floors at 16 nodes per index tree
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction",
		xmark.GenerateString(xmark.Config{Factor: 0.02, Seed: 51}))
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryContext(context.Background(), doc, heavyExpr,
		WithMaxPagesRead(2))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *BudgetError", err)
	}
	if be.Budget != "pages-read" || be.Limit != 2 {
		t.Errorf("BudgetError = %+v, want budget pages-read limit 2", be)
	}
}

// TestDefaultLimits checks DB-level default budgets apply to every query
// and per-query options override them.
func TestDefaultLimits(t *testing.T) {
	db, err := Open(Options{DefaultLimits: Limits{MaxResults: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc := loadAuction(t, db, 0.01)

	// Default applies to the context-free path too.
	res, err := db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if n != 2 || !errors.Is(res.Err(), ErrBudgetExceeded) {
		t.Errorf("DB default MaxResults=2: got %d results, err %v", n, res.Err())
	}

	// A per-query option overrides the default field.
	keys, err := func() ([]string, error) {
		r, err := db.QueryContext(context.Background(), doc, "//person/address",
			WithMaxResults(0))
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatalf("WithMaxResults(0) override: %v", err)
	}
	if len(keys) <= 2 {
		t.Errorf("override delivered %d results, want more than the default cap", len(keys))
	}
}

// TestConcurrentMixedDeadlines runs governed and ungoverned queries
// concurrently: tight-deadline queries must die with the deadline error
// while generous ones finish with full results, uninfluenced.
func TestConcurrentMixedDeadlines(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.05)

	wantKeys, err := func() ([]string, error) {
		r, err := db.Query(doc, heavyExpr)
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantKeys) == 0 {
		t.Fatal("fixture produced no results")
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var opts []QueryOption
			if i%2 == 1 {
				opts = append(opts, WithTimeout(time.Millisecond))
			}
			res, err := db.QueryContext(context.Background(), doc, heavyExpr, opts...)
			if err != nil {
				errs[i] = err
				return
			}
			for res.Next() {
				counts[i]++
			}
			errs[i] = res.Err()
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i += 2 {
		if errs[i] != nil {
			t.Errorf("generous query %d failed: %v", i, errs[i])
		}
		if counts[i] != len(wantKeys) {
			t.Errorf("generous query %d delivered %d results, want %d", i, counts[i], len(wantKeys))
		}
	}
	for i := 1; i < 8; i += 2 {
		if errs[i] != nil && !errors.Is(errs[i], ErrDeadlineExceeded) {
			t.Errorf("tight query %d failed with %v, want nil or ErrDeadlineExceeded", i, errs[i])
		}
	}
}

// TestErrorTaxonomy checks the non-governance members of the public error
// taxonomy: unknown documents and compile errors.
func TestErrorTaxonomy(t *testing.T) {
	db := openDB(t)

	if _, err := db.Document("nope"); !errors.Is(err, ErrNoSuchDocument) {
		t.Errorf("Document(nope) = %v, want ErrNoSuchDocument", err)
	}
	if err := db.Drop("nope"); !errors.Is(err, ErrNoSuchDocument) {
		t.Errorf("Drop(nope) = %v, want ErrNoSuchDocument", err)
	}

	_, err := db.Prepare("//person[", WithoutOptimization(), WithoutCache())
	if err == nil {
		t.Fatal("Prepare of malformed expression succeeded")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("compile error %v does not unwrap to *SyntaxError", err)
	}
	if se.Expr != "//person[" || se.Pos <= 0 {
		t.Errorf("SyntaxError = %+v, want the offending expression and a real position", se)
	}
}

// TestResultsAll checks the range-over-func iterators: All yields the
// same nodes as the manual loop, surfaces the terminal error as its last
// pair, and closing is implicit and idempotent.
func TestResultsAll(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	wantKeys, err := func() ([]string, error) {
		r, err := db.Query(doc, "//person/address")
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for n, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n.Key)
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("All yielded %d nodes, want %d", len(got), len(wantKeys))
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, got[i], wantKeys[i])
		}
	}
	// Exhausted and closed: both iteration styles now yield nothing.
	if res.Next() {
		t.Error("Next on a drained Results returned true")
	}
	for range res.All() {
		t.Error("All on a drained Results yielded")
	}
	if err := res.Close(); err != nil {
		t.Errorf("redundant Close: %v", err)
	}

	// A governance trip surfaces as the final yielded pair.
	res, err = db.QueryContext(context.Background(), doc, "//person/address",
		WithMaxResults(2))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	n := 0
	for node, err := range res.All() {
		if err != nil {
			last = err
		} else {
			n++
			if node.Key == "" {
				t.Error("All yielded an empty node without error")
			}
		}
	}
	if n != 2 {
		t.Errorf("All delivered %d nodes under WithMaxResults(2), want 2", n)
	}
	var be *BudgetError
	if !errors.As(last, &be) {
		t.Errorf("All terminal pair err = %v, want *BudgetError", last)
	}

	// Early break closes the stream.
	res, err = db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	for range res.AllKeys() {
		break
	}
	if res.Next() {
		t.Error("Next after breaking out of AllKeys returned true")
	}
}

// TestGovernanceOverheadGate asserts that an active limiter (cancelable
// context plus finite budgets) costs the warm serving path at most 3%
// over the ungoverned fast path (nil limiter).
//
// Methodology: single-goroutine measurement loops, interleaved rounds,
// and a best-of-rounds comparison. On a time-shared machine the noise is
// additive (scheduler preemption, frequency drift, cache pollution from
// neighbors), so the minimum over rounds converges to the true cost of
// each path, while per-round ratios conflate that noise — which swings
// far more than 3% round to round — with the governance delta being
// measured. Skipped unless VAMANA_GOVERNANCE_GATE is set —
// scripts/check.sh runs it.
func TestGovernanceOverheadGate(t *testing.T) {
	if os.Getenv("VAMANA_GOVERNANCE_GATE") == "" {
		t.Skip("set VAMANA_GOVERNANCE_GATE=1 to run the governance-overhead gate")
	}
	db := openDB(t)
	doc := loadAuction(t, db, xmark.FactorForBytes(32<<10))
	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	governedOpts := []QueryOption{
		WithMaxResults(1 << 40),
		WithMaxPagesRead(1 << 40),
		WithMaxDecodedRecords(1 << 40),
	}
	loop := func(governed bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expr := workloadExprs[i%len(workloadExprs)]
				var res *Results
				var err error
				if governed {
					res, err = db.QueryContext(ctx, doc, expr, governedOpts...)
				} else {
					res, err = db.Query(doc, expr)
				}
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
	measure := func(governed bool) float64 {
		return float64(testing.Benchmark(loop(governed)).NsPerOp())
	}

	measure(true) // warm-up round, discarded
	const (
		rounds   = 7
		attempts = 3
		budget   = 1.03
	)
	// A genuine regression exceeds the budget on every attempt; a noise
	// spike (neighbor stealing the core for one measurement window) does
	// not, so the gate only fails when no attempt comes in under budget.
	var ratio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		offBest, onBest := math.MaxFloat64, math.MaxFloat64
		var offs, ons []float64
		for i := 0; i < rounds; i++ {
			var off, on float64
			if i%2 == 0 {
				off, on = measure(false), measure(true)
			} else {
				on, off = measure(true), measure(false)
			}
			offs, ons = append(offs, off), append(ons, on)
			offBest, onBest = min(offBest, off), min(onBest, on)
		}
		ratio = onBest / offBest
		t.Logf("attempt %d: warm serving ns/op ungoverned %v (best %.0f), governed %v (best %.0f), best-of-rounds ratio %.3f",
			attempt, offs, offBest, ons, onBest, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Errorf("governance overhead %.1f%% exceeds the 3%% budget on all %d attempts", 100*(ratio-1), attempts)
}
