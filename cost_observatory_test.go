package vamana

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana/internal/obs"
)

// skewedDoc is a document built to misestimate deterministically: the
// only <b> under an <a> is one of 64, so the child::b step in //a/b gets
// a Table I OUT bound of COUNT(b)=64 against an actual of 1 — a q-error
// of exactly 64, large enough to trigger calibration on one sample.
func skewedDoc(t testing.TB, db *DB) *Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r><a><b/></a><c>")
	for i := 0; i < 63; i++ {
		sb.WriteString("<b/>")
	}
	sb.WriteString("</c></r>")
	doc, err := db.LoadXMLString("skewed", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// geomeanQError runs expr's optimized plan to completion and returns the
// geometric-mean q-error over its cost-annotated operators, via the same
// Analyze machinery ExplainAnalyze renders.
func geomeanQError(t testing.TB, db *DB, doc *Document, expr string) float64 {
	t.Helper()
	q, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatalf("Prepare(%s): %v", expr, err)
	}
	an, err := q.q.Analyze(doc.id)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", expr, err)
	}
	var sumLog float64
	n := 0
	for _, st := range an.Stats {
		if st.Op == nil || !st.Op.Cost.Done {
			continue
		}
		sumLog += math.Log2(obs.QError(st.Op.Cost.Out, st.Out))
		n++
	}
	if n == 0 {
		t.Fatalf("Analyze(%s): no cost-annotated operators", expr)
	}
	return math.Exp2(sumLog / float64(n))
}

func TestCostObservatoryProfile(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	if p, ok := db.CostProfile(); !ok {
		t.Fatal("CostProfile not available on a default-options database")
	} else if p.Observations != 0 {
		t.Fatalf("fresh database already has %d observations", p.Observations)
	}

	// Cold and warm passes: the fold must fire on cache hits too.
	for pass := 0; pass < 2; pass++ {
		for _, expr := range workloadExprs {
			drainCount(t, db, doc, expr)
		}
	}

	p, ok := db.CostProfile()
	if !ok {
		t.Fatal("CostProfile unavailable after queries")
	}
	if p.Observations == 0 || len(p.Classes) == 0 {
		t.Fatalf("observatory empty after workload: %+v", p)
	}
	if p.CalibrationEnabled {
		t.Error("calibration reported enabled on a default-options database")
	}
	var sum uint64
	for i, c := range p.Classes {
		sum += c.Samples
		if c.Samples == 0 {
			t.Errorf("class %s/%q has zero samples", c.Axis, c.Rewrite)
		}
		if c.P50 < 1 || c.P95 < c.P50 || c.Max < 1 {
			t.Errorf("class %s/%q has inconsistent quantiles: %+v", c.Axis, c.Rewrite, c)
		}
		if c.Factor != 1 {
			t.Errorf("class %s/%q has factor %g with calibration off", c.Axis, c.Rewrite, c.Factor)
		}
		if i > 0 && p.Classes[i-1].P95 < c.P95 {
			t.Errorf("classes not sorted worst-first: %g before %g", p.Classes[i-1].P95, c.P95)
		}
	}
	if sum != p.Observations {
		t.Errorf("class samples sum to %d, profile says %d", sum, p.Observations)
	}

	// At least one xmark workload step misestimates enough to record a
	// worst offender with its expression.
	anyOffender := false
	for _, c := range p.Classes {
		if c.Worst.QError >= 2 && c.Worst.Expr != "" && c.Worst.Op != "" {
			anyOffender = true
		}
	}
	if !anyOffender {
		t.Error("no worst offender recorded across the workload")
	}

	// The text rendering carries the same totals.
	var txt bytes.Buffer
	p.WriteText(&txt)
	if !strings.Contains(txt.String(), "cost-model observatory") ||
		!strings.Contains(txt.String(), "AXIS") {
		t.Errorf("WriteText output malformed:\n%s", txt.String())
	}

	// Disabling the observatory removes the profile entirely.
	off, err := openWith(Options{}, benchKnobs{noCostObservatory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	offDoc := loadAuction(t, off, 0.003)
	drainCount(t, off, offDoc, workloadExprs[0])
	if _, ok := off.CostProfile(); ok {
		t.Error("CostProfile available with the observatory off")
	}
}

func TestCostDebugEndpointsAndMetrics(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}
	h := db.DebugHandler("/debug/vamana")

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/debug/vamana/cost")
	if rec.Code != 200 {
		t.Fatalf("/cost status %d", rec.Code)
	}
	var p CostProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("/cost JSON: %v", err)
	}
	if p.Observations == 0 || len(p.Classes) == 0 {
		t.Errorf("/cost JSON empty: %+v", p)
	}

	rec = get("/debug/vamana/cost?format=text")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "cost-model observatory") {
		t.Errorf("/cost?format=text status %d body %q", rec.Code, rec.Body.String())
	}

	// The index page links every endpoint including the pprof mounts.
	rec = get("/debug/vamana/")
	if rec.Code != 200 {
		t.Fatalf("index status %d", rec.Code)
	}
	for _, link := range []string{"/debug/vamana/cost", "/debug/vamana/metrics", "/debug/pprof/"} {
		if !strings.Contains(rec.Body.String(), link) {
			t.Errorf("index page missing link %q", link)
		}
	}

	// The stdlib pprof handlers are live on the same handler.
	rec = get("/debug/pprof/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status %d", rec.Code)
	}
	rec = get("/debug/pprof/cmdline")
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rec.Code)
	}

	// The Prometheus exposition carries the labeled class series.
	var prom bytes.Buffer
	if err := db.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"vamana_cost_observations_total",
		"vamana_cost_class_samples{axis=",
		"vamana_cost_class_qerror_p95{axis=",
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}

	// Disabled observatory: /cost 404s but the rest of the page works.
	off, err := openWith(Options{}, benchKnobs{noCostObservatory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	rec = httptest.NewRecorder()
	off.DebugHandler("/debug/vamana").ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vamana/cost", nil))
	if rec.Code != 404 {
		t.Errorf("/cost on disabled observatory: status %d, want 404", rec.Code)
	}
}

// TestSlowQueryWorstOpAnnotation drives a deterministically misestimated
// query through a 1ns slow threshold and checks the ring entry names the
// worst operator.
func TestSlowQueryWorstOpAnnotation(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := skewedDoc(t, db)

	if n := drainCount(t, db, doc, "//a/b"); n != 1 {
		t.Fatalf("//a/b returned %d results, want 1", n)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries recorded")
	}
	sq := slow[0]
	if sq.WorstOp == "" || sq.WorstQErr < 2 {
		t.Fatalf("slow entry missing worst-op annotation: %+v", sq)
	}
	if !strings.Contains(sq.WorstOp, "b") {
		t.Errorf("worst op %q does not name the misestimated step", sq.WorstOp)
	}
	if !strings.Contains(buf.String(), "worstop=") || !strings.Contains(buf.String(), "qerr=") {
		t.Errorf("slow log line missing miscost annotation: %q", buf.String())
	}
}

// TestCostCalibrationLearns checks the feedback loop end to end on the
// skewed document: the first fold learns a 64x overestimate, bumps the
// statistics epoch (invalidating the cached plan), and subsequent
// compiles carry a corrected, near-exact OUT bound.
func TestCostCalibrationLearns(t *testing.T) {
	db, err := Open(Options{CostCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := skewedDoc(t, db)
	const expr = "//a/b"

	before := geomeanQError(t, db, doc, expr)

	// Train: every serving-path run folds (est, act) pairs into the
	// class EWMAs; the first one alone drifts far past the bump
	// threshold.
	want := drainCount(t, db, doc, expr)
	p, ok := db.CostProfile()
	if !ok || !p.CalibrationEnabled {
		t.Fatalf("calibration not reported enabled: %+v", p)
	}
	if p.EpochBumps == 0 {
		t.Fatalf("no epoch bump after a 64x misestimate: %+v", p)
	}
	// The bump must invalidate the cached plan on the next lookup, and
	// the recompiled (calibrated) plan must return identical results.
	csBefore := db.CacheStats()
	for i := 0; i < 30; i++ {
		if n := drainCount(t, db, doc, expr); n != want {
			t.Fatalf("run %d returned %d results, want %d", i, n, want)
		}
	}
	if cs := db.CacheStats(); cs.Invalidations <= csBefore.Invalidations {
		t.Errorf("epoch bump did not invalidate cached plans: %+v -> %+v", csBefore, cs)
	}

	after := geomeanQError(t, db, doc, expr)
	t.Logf("skewed //a/b geomean q-error: uncalibrated %.2f, calibrated %.2f", before, after)
	if after >= before {
		t.Errorf("calibration did not reduce q-error: %.2f -> %.2f", before, after)
	}
	p, _ = db.CostProfile()
	anyFactor := false
	for _, c := range p.Classes {
		if c.Factor < 1 {
			anyFactor = true
		}
		if c.Factor < 1.0/1024 {
			t.Errorf("factor below floor: %+v", c)
		}
	}
	if !anyFactor {
		t.Error("no class learned a correction factor below 1")
	}
}

// TestCostCalibrationSharedSnapshot: after an Update, reads run on the
// shared auto-snapshot and still feed calibration; the resulting epoch
// bump changes no committed data, so it must not mark the shared
// snapshot stale (which would push reads back onto the live store).
func TestCostCalibrationSharedSnapshot(t *testing.T) {
	db, err := Open(Options{CostCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := skewedDoc(t, db)
	if err := db.Update(func(*Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	drainCount(t, db, doc, "//a/b")
	if p, _ := db.CostProfile(); p.EpochBumps == 0 {
		t.Fatalf("no epoch bump from a shared-snapshot read after a 64x misestimate: %+v", p)
	}
	sn := db.acquireShared()
	if sn == nil {
		t.Fatal("calibration epoch bump marked the shared snapshot stale")
	}
	sn.Unref()
}

// TestCostCalibrationImprovesXmark pairs two databases over the same
// xmark document — calibration off and on — trains the calibrated one on
// the paper's Q1-Q5 workload, and asserts the workload's geometric-mean
// q-error drops. The numbers logged here are the ones EXPERIMENTS.md
// reports.
func TestCostCalibrationImprovesXmark(t *testing.T) {
	open := func(calibrate bool) (*DB, *Document) {
		db, err := Open(Options{CostCalibration: calibrate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db, loadAuction(t, db, 0.003)
	}
	dbOff, docOff := open(false)
	dbOn, docOn := open(true)

	// Train both the same way (the uncalibrated one just accumulates).
	for round := 0; round < 20; round++ {
		for _, expr := range workloadExprs {
			drainCount(t, dbOff, docOff, expr)
			drainCount(t, dbOn, docOn, expr)
		}
	}

	var sumOff, sumOn float64
	for _, expr := range workloadExprs {
		gOff := geomeanQError(t, dbOff, docOff, expr)
		gOn := geomeanQError(t, dbOn, docOn, expr)
		t.Logf("%-50s geomean q-error: raw %6.2f calibrated %6.2f", expr, gOff, gOn)
		sumOff += math.Log2(gOff)
		sumOn += math.Log2(gOn)
	}
	gOff := math.Exp2(sumOff / float64(len(workloadExprs)))
	gOn := math.Exp2(sumOn / float64(len(workloadExprs)))
	t.Logf("workload geomean q-error: raw %.2f calibrated %.2f", gOff, gOn)
	if gOn >= gOff {
		t.Errorf("calibration did not improve workload q-error: %.3f -> %.3f", gOff, gOn)
	}
}

// TestCostObservatoryConcurrentFolds exercises the striped accumulators,
// lazy class creation, EWMA CASes, and epoch bumps from many goroutines
// at once; its real assertions are the race detector's.
func TestCostObservatoryConcurrentFolds(t *testing.T) {
	db, err := Open(Options{CostCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)
	skew := skewedDoc(t, db) // drives epoch bumps concurrently

	want := make([]int, len(workloadExprs))
	for i, expr := range workloadExprs {
		want[i] = drainCount(t, db, doc, expr)
	}
	wantSkew := drainCount(t, db, skew, "//a/b")

	const goroutines, perG = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (g+i)%4 == 0 {
					res, err := db.Query(skew, "//a/b")
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for res.Next() {
						n++
					}
					if n != wantSkew {
						t.Errorf("concurrent skew query returned %d, want %d", n, wantSkew)
					}
					continue
				}
				qi := (g + i) % len(workloadExprs)
				res, err := db.Query(doc, workloadExprs[qi])
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for res.Next() {
					n++
				}
				if err := res.Err(); err != nil {
					errs <- err
					return
				}
				if n != want[qi] {
					t.Errorf("concurrent query %q returned %d, want %d", workloadExprs[qi], n, want[qi])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p, ok := db.CostProfile()
	if !ok || p.Observations == 0 {
		t.Fatalf("observatory empty after concurrent load: %+v", p)
	}
	// Profile under concurrent load must stay internally consistent.
	var sum uint64
	for _, c := range p.Classes {
		sum += c.Samples
	}
	if sum != p.Observations {
		t.Errorf("class samples sum %d != observations %d", sum, p.Observations)
	}
}

// TestCalibrationDifferential is the on/off differential harness: over a
// seeded random corpus, a calibrating database and a plain one must
// return byte-identical ordered results — before and after calibration
// has had a pass to learn factors and recompile plans.
func TestCalibrationDifferential(t *testing.T) {
	const seed, docs, queriesPerDoc = 9001, 6, 20
	for d := 0; d < docs; d++ {
		docSeed := int64(seed + d)
		g := &diffGen{r: rand.New(rand.NewSource(docSeed))}
		src := g.genDoc()
		queries := make([]string, queriesPerDoc)
		for i := range queries {
			queries[i] = g.genQuery()
		}

		dbOff, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		dbOn, err := Open(Options{CostCalibration: true})
		if err != nil {
			t.Fatal(err)
		}
		docOff, err := dbOff.LoadXMLString("doc", src)
		if err != nil {
			t.Fatalf("doc seed %d: %v", docSeed, err)
		}
		docOn, err := dbOn.LoadXMLString("doc", src)
		if err != nil {
			t.Fatalf("doc seed %d: %v", docSeed, err)
		}

		// Pass 0 runs on raw estimates while calibration learns; pass 1
		// runs against whatever corrected factors and recompiled plans
		// pass 0 produced. Results must never move.
		for pass := 0; pass < 2; pass++ {
			for _, expr := range queries {
				offServed := servedSortedKeys(t, dbOff, docOff, expr)
				onServed := servedSortedKeys(t, dbOn, docOn, expr)
				if !equalKeys(offServed, onServed) {
					t.Fatalf("served results diverge (seed %d pass %d expr %q):\noff: %v\non:  %v\ndoc: %s",
						docSeed, pass, expr, offServed, onServed, src)
				}
				offOrdered := orderedKeys(t, dbOff, docOff, expr)
				onOrdered := orderedKeys(t, dbOn, docOn, expr)
				if !equalKeys(offOrdered, onOrdered) {
					t.Fatalf("ordered results diverge (seed %d pass %d expr %q):\noff: %v\non:  %v\ndoc: %s",
						docSeed, pass, expr, offOrdered, onOrdered, src)
				}
			}
		}
		dbOff.Close()
		dbOn.Close()
	}
}

// servedSortedKeys drives expr through the serving path (feeding the
// observatory fold) and returns its result keys sorted, since pipelined
// emission order is plan-dependent.
func servedSortedKeys(t *testing.T, db *DB, doc *Document, expr string) []string {
	t.Helper()
	res, err := db.Query(doc, expr)
	if err != nil {
		t.Fatalf("Query(%s): %v", expr, err)
	}
	var keys []string
	for res.Next() {
		keys = append(keys, res.Key())
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Query(%s) drain: %v", expr, err)
	}
	sort.Strings(keys)
	return keys
}

// orderedKeys returns expr's document-ordered result keys through the
// cached optimized plan — the canonical byte-comparable stream.
func orderedKeys(t *testing.T, db *DB, doc *Document, expr string) []string {
	t.Helper()
	q, err := db.Prepare(expr, WithDocument(doc))
	if err != nil {
		t.Fatalf("Prepare(%s): %v", expr, err)
	}
	res, err := q.Run(context.Background(), doc, Ordered())
	if err != nil {
		t.Fatalf("Run(%s): %v", expr, err)
	}
	keys, err := res.Keys()
	if err != nil {
		t.Fatalf("Run(%s) drain: %v", expr, err)
	}
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
