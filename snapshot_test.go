package vamana

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

const snapXML = `<lib><book id="1"><title>A</title></book><book id="2"><title>B</title></book></lib>`

// xmlOf serializes the document root through whatever store the handle
// is bound to (live or snapshot).
func xmlOf(t testing.TB, d *Document) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteXML("a", &buf); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	return buf.String()
}

// TestSnapshotIsolation: a snapshot keeps serving the exact committed
// state it pinned — bytes, queries, statistics — while transactions
// commit underneath; a later snapshot sees the new state.
func TestSnapshotIsolation(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	before := xmlOf(t, doc)

	sn1, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn1.Close()
	sdoc1, err := sn1.Document("lib")
	if err != nil {
		t.Fatal(err)
	}

	// Commit a transaction on the live database.
	if err := db.Update(func(tx *Txn) error {
		k, err := tx.InsertElement(doc, "a", -1, "appendix")
		if err != nil {
			return err
		}
		_, err = tx.InsertText(doc, k, -1, "notes")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := xmlOf(t, doc)
	if before == after {
		t.Fatal("update did not change the document")
	}

	sn2, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()
	if sn2.Epoch() <= sn1.Epoch() {
		t.Fatalf("epochs not increasing: %d then %d", sn1.Epoch(), sn2.Epoch())
	}

	// The old snapshot still serves the old bytes; the new one the new.
	if got := xmlOf(t, sdoc1); got != before {
		t.Fatalf("snapshot 1 drifted:\n got %q\nwant %q", got, before)
	}
	sdoc2, err := sn2.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got := xmlOf(t, sdoc2); got != after {
		t.Fatalf("snapshot 2 wrong:\n got %q\nwant %q", got, after)
	}

	// Queries through each snapshot see its version.
	res, err := sn1.Query(sdoc1, "//appendix")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 0 {
		t.Fatalf("snapshot 1 sees the new element: %v", keys)
	}
	res, err = sn2.Query(sdoc2, "//appendix")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 1 {
		t.Fatalf("snapshot 2 misses the new element: %v", keys)
	}
	// Statistics probes are pinned too.
	if n, err := sdoc1.CountName("appendix"); err != nil || n != 0 {
		t.Fatalf("snapshot 1 CountName = %d, %v", n, err)
	}
	if n, err := sdoc2.CountName("appendix"); err != nil || n != 1 {
		t.Fatalf("snapshot 2 CountName = %d, %v", n, err)
	}
	// Re-reads are stable.
	if got := xmlOf(t, sdoc1); got != before {
		t.Fatal("snapshot 1 unstable on re-read")
	}
	if u := sn1.Usage(); u.Queries == 0 {
		t.Fatalf("snapshot usage not folded: %+v", u)
	}
}

// TestSnapshotReadOnlyPublic: a transaction mutation through a
// snapshot-bound handle fails with the typed error and leaves the live
// document untouched; queries on a closed snapshot fail too.
func TestSnapshotReadOnlyPublic(t *testing.T) {
	db := openDB(t)
	if _, err := db.LoadXMLString("lib", snapXML); err != nil {
		t.Fatal(err)
	}
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sdoc, err := sn.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	live, err := db.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	base := xmlOf(t, live)
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.InsertElement(sdoc, "a", -1, "x")
		return err
	}); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("InsertElement on snapshot: %v", err)
	}
	if err := db.Update(func(tx *Txn) error { return tx.DeleteSubtree(sdoc, "a.b") }); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("DeleteSubtree on snapshot: %v", err)
	}
	if got := xmlOf(t, live); got != base {
		t.Fatalf("rejected snapshot mutations changed the live document:\n got %s\nwant %s", got, base)
	}
	sn.Close()
	if _, err := sn.Query(sdoc, "//book"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("query on closed snapshot: %v", err)
	}
	if _, err := sn.Document("lib"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Document on closed snapshot: %v", err)
	}
}

// TestUpdateTxnPublic: DB.Update commits atomically, rolls back on
// error, and the Txn is dead once the function returns.
func TestUpdateTxnPublic(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	base := xmlOf(t, doc)

	// Error from fn rolls everything back.
	boom := errors.New("boom")
	err = db.Update(func(tx *Txn) error {
		if _, err := tx.InsertElement(doc, "a", -1, "junk"); err != nil {
			return err
		}
		if err := tx.DeleteSubtree(doc, "a.b"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update error = %v", err)
	}
	if got := xmlOf(t, doc); got != base {
		t.Fatalf("rollback left changes:\n got %q\nwant %q", got, base)
	}
	if n, _ := doc.CountName("junk"); n != 0 {
		t.Fatalf("rolled-back insert visible in statistics: %d", n)
	}

	// Panic from fn rolls back too and propagates.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = db.Update(func(tx *Txn) error {
			if _, err := tx.InsertElement(doc, "a", -1, "junk"); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	if got := xmlOf(t, doc); got != base {
		t.Fatal("panicked transaction left changes")
	}

	// Successful transaction: visible atomically, usable after commit.
	var escaped *Txn
	err = db.Update(func(tx *Txn) error {
		escaped = tx
		k, err := tx.InsertElement(doc, "a", -1, "chapter")
		if err != nil {
			return err
		}
		if _, err := tx.InsertText(doc, k, -1, "body"); err != nil {
			return err
		}
		return tx.RenameElement(doc, k, "section")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := xmlOf(t, doc)
	if !strings.Contains(got, "<section>body</section>") {
		t.Fatalf("commit lost changes: %q", got)
	}
	// The transaction handle is dead after Update returns.
	if _, err := escaped.InsertElement(doc, "a", -1, "late"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("escaped txn: %v", err)
	}
	// Queries on the live DB see the committed version (auto-snapshot).
	res, err := db.Query(doc, "//section")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 1 {
		t.Fatalf("committed element not served: %v", keys)
	}
}

// TestDropBusyPublic: Drop refuses with ErrDocumentBusy while a
// snapshot or an in-flight result stream could still read the document.
func TestDropBusyPublic(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with open snapshot: %v", err)
	}
	sn.Close()

	res, err := db.Query(doc, "//book")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatal("no results")
	}
	if err := db.Drop("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with open stream: %v", err)
	}
	res.Close()

	// The auto-snapshot installed by Update must not wedge Drop.
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.InsertElement(doc, "a", -1, "extra")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("lib"); err != nil {
		t.Fatalf("drop after release: %v", err)
	}
	if got := db.Documents(); len(got) != 0 {
		t.Fatalf("document survived drop: %v", got)
	}
}

// TestPrepareRunEquivalence: every Prepare/Run variant — cached or
// uncached, optimized or default plan, ordered, from an explicit context
// node — agrees with the serving path DB.Query.
func TestPrepareRunEquivalence(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)
	ctx := context.Background()
	const expr = "//person/address"

	keysOf := func(r *Results, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		keys, err := r.Keys()
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	same := func(a, b []string, label string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: result %d differs: %q vs %q", label, i, a[i], b[i])
			}
		}
	}

	// The serving path's answer is the reference every Prepare/Run
	// variant must reproduce.
	want := keysOf(db.Query(doc, expr))
	if len(want) == 0 {
		t.Fatal("no results in fixture")
	}

	// Cached and uncached optimized compiles run identically.
	qCached, err := db.Prepare(expr, WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	qFresh, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !qCached.Optimized() || !qFresh.Optimized() {
		t.Fatal("optimizer did not run")
	}
	same(keysOf(qCached.Run(ctx, doc)), want, "optimized run")
	same(keysOf(qFresh.Run(ctx, doc)), want, "uncached optimized run")

	// WithoutOptimization builds the default plan, cached or not; it
	// delivers the same node set (pipeline order may differ).
	ordered := append([]string(nil), want...)
	sort.Strings(ordered) // FLEX keys sort in document order
	for _, opts := range [][]CompileOption{
		{WithoutOptimization()},
		{WithoutOptimization(), WithoutCache()},
		{WithDocument(doc), WithoutOptimization()},
	} {
		q, err := db.Prepare(expr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if q.Optimized() {
			t.Fatal("WithoutOptimization still optimized")
		}
		same(keysOf(q.Run(ctx, doc, Ordered())), ordered, "default plan")
	}

	// Run(Ordered()) delivers document order.
	same(keysOf(qCached.Run(ctx, doc, Ordered())), ordered, "ordered")

	// Run(From(...)) evaluates relative to the given context node.
	people := keysOf(db.Query(doc, "/site/people/person"))
	if len(people) == 0 {
		t.Fatal("no people in fixture")
	}
	qRel, err := db.Prepare("address", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	var own []string
	for _, k := range want {
		if strings.HasPrefix(k, people[0]+".") {
			own = append(own, k)
		}
	}
	same(keysOf(qRel.Run(ctx, doc, From(people[0], nil))), own, "from")

	// Prepare caches: a second Prepare for the same (doc, expr) hits.
	h0 := db.CacheStats().Hits
	if _, err := db.Prepare(expr, WithDocument(doc)); err != nil {
		t.Fatal(err)
	}
	if h1 := db.CacheStats().Hits; h1 <= h0 {
		t.Fatalf("Prepare did not hit the plan cache: %d -> %d", h0, h1)
	}
}

// TestMixedReadWriteRace is the concurrency battery: a writer toggles
// the document between two states through transactions while reader
// goroutines pin snapshots and assert every snapshot read is
// byte-identical to one of the two committed states — never a blend —
// and stable on re-read. Run under -race this exercises the MVCC layer,
// the shared auto-snapshot, refcounting, and group commit at once.
func TestMixedReadWriteRace(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	stateA := xmlOf(t, doc)

	// Build state B once to learn its bytes, then return to A. The
	// marker is always appended at the end, so B's serialization is
	// identical every time the writer re-creates it.
	var marker string
	mkB := func() error {
		return db.Update(func(tx *Txn) error {
			k, err := tx.InsertElement(doc, "a", -1, "marker")
			if err != nil {
				return err
			}
			if _, err := tx.InsertText(doc, k, -1, "v"); err != nil {
				return err
			}
			marker = k
			return nil
		})
	}
	mkA := func() error {
		return db.Update(func(tx *Txn) error { return tx.DeleteSubtree(doc, marker) })
	}
	if err := mkB(); err != nil {
		t.Fatal(err)
	}
	stateB := xmlOf(t, doc)
	if err := mkA(); err != nil {
		t.Fatal(err)
	}
	if stateA == stateB {
		t.Fatal("states not distinct")
	}

	const (
		readers    = 4
		iterations = 60
		writerLaps = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerLaps; i++ {
			if err := mkB(); err != nil {
				errc <- fmt.Errorf("writer mkB: %w", err)
				return
			}
			if err := mkA(); err != nil {
				errc <- fmt.Errorf("writer mkA: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				sn, err := db.Snapshot()
				if err != nil {
					errc <- fmt.Errorf("reader %d snapshot: %w", r, err)
					return
				}
				sdoc, err := sn.Document("lib")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d doc: %w", r, err)
					return
				}
				var buf bytes.Buffer
				if err := sdoc.WriteXML("a", &buf); err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d serialize: %w", r, err)
					return
				}
				got := buf.String()
				if got != stateA && got != stateB {
					sn.Close()
					errc <- fmt.Errorf("reader %d: torn read:\n%q", r, got)
					return
				}
				// The snapshot's query agrees with its bytes, and a
				// re-read is identical — the pinned version cannot move.
				res, err := sn.Query(sdoc, "//marker")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				keys, err := res.Keys()
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d drain: %w", r, err)
					return
				}
				wantMarkers := 0
				if got == stateB {
					wantMarkers = 1
				}
				if len(keys) != wantMarkers {
					sn.Close()
					errc <- fmt.Errorf("reader %d: %d markers for state with %d", r, len(keys), wantMarkers)
					return
				}
				buf.Reset()
				if err := sdoc.WriteXML("a", &buf); err != nil || buf.String() != got {
					sn.Close()
					errc <- fmt.Errorf("reader %d: snapshot drifted on re-read (err=%v)", r, err)
					return
				}
				// Interleave auto-snapshot reads on the live DB: they
				// must also never tear.
				live, err := db.Query(doc, "//book")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d live query: %w", r, err)
					return
				}
				if bk, err := live.Keys(); err != nil || len(bk) != 2 {
					sn.Close()
					errc <- fmt.Errorf("reader %d live books = %d, %v", r, len(bk), err)
					return
				}
				sn.Close()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// All snapshots are closed: dropping must succeed after the shared
	// auto-snapshot is released.
	if err := db.Drop("lib"); err != nil {
		t.Fatalf("drop after battery: %v", err)
	}
}
