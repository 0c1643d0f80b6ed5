package vamana

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

var errAbort = errors.New("abort transaction")

// queryKeys runs expr against doc and returns the matched FLEX keys.
func queryKeys(db *DB, doc *Document, expr string) ([]string, error) {
	res, err := db.Query(doc, expr)
	if err != nil {
		return nil, err
	}
	return res.Keys()
}

// runKeys runs expr against doc through Prepare→Run and returns the
// matched FLEX keys.
func runKeys(db *DB, doc *Document, expr string) ([]string, error) {
	q, err := db.Prepare(expr, WithDocument(doc))
	if err != nil {
		return nil, err
	}
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		return nil, err
	}
	return res.Keys()
}

// TestNoDirtyReadsDuringTransaction is the regression test for the
// DESIGN §13 limitation: direct Document reads (CountName, Stats, Node,
// StringValue, WriteXML, queries, Prepare→Run) issued while a DB.Update
// is open used to hit the live trees and observe the transaction's
// buffered writes. They must observe the last committed state instead,
// from the very first transaction on.
func TestNoDirtyReadsDuringTransaction(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<lib><book><title>Committed</title></book></lib>`)
	if err != nil {
		t.Fatal(err)
	}

	keys, err := queryKeys(db, doc, "//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("setup: %d books", len(keys))
	}

	// First-ever transaction: no commit has installed a shared snapshot
	// yet, so this exercises Update's pre-install path.
	if err := db.Update(func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		bk, err := tx.InsertElement(doc, root[0], -1, "book")
		if err != nil {
			return err
		}
		ttl, err := tx.InsertElement(doc, bk, -1, "title")
		if err != nil {
			return err
		}
		if _, err := tx.InsertText(doc, ttl, -1, "Buffered"); err != nil {
			return err
		}

		// Every direct read below runs mid-transaction and must see only
		// the committed single-book state.
		if n, err := doc.CountName("book"); err != nil || n != 1 {
			t.Errorf("mid-txn CountName(book) = %d, %v; want 1 (dirty read)", n, err)
		}
		if tc, err := doc.TextCount("Buffered"); err != nil || tc != 0 {
			t.Errorf("mid-txn TextCount(Buffered) = %d, %v; want 0 (dirty read)", tc, err)
		}
		st, err := doc.Stats()
		if err != nil {
			t.Errorf("mid-txn Stats: %v", err)
		} else if st.Elements != 3 {
			t.Errorf("mid-txn Stats.Elements = %d, want 3 (lib, book, title)", st.Elements)
		}
		if _, ok, err := doc.Node(bk); err != nil || ok {
			t.Errorf("mid-txn Node(buffered key) visible = %v, %v; want absent", ok, err)
		}
		var sb strings.Builder
		if err := doc.WriteXML("a", &sb); err != nil {
			t.Errorf("mid-txn WriteXML: %v", err)
		} else if strings.Contains(sb.String(), "Buffered") {
			t.Errorf("mid-txn WriteXML leaked buffered text: %s", sb.String())
		}
		if got, err := queryKeys(db, doc, "//book"); err != nil || len(got) != 1 {
			t.Errorf("mid-txn query //book = %d keys, %v; want 1", len(got), err)
		}
		if got, err := runKeys(db, doc, "//book"); err != nil || len(got) != 1 {
			t.Errorf("mid-txn Prepare→Run //book = %d keys, %v; want 1 (dirty read)", len(got), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// After commit everything is visible.
	if n, _ := doc.CountName("book"); n != 2 {
		t.Fatalf("post-commit CountName(book) = %d, want 2", n)
	}
	if tc, _ := doc.TextCount("Buffered"); tc != 1 {
		t.Fatalf("post-commit TextCount(Buffered) = %d, want 1", tc)
	}
	var sb strings.Builder
	if err := doc.WriteXML("a", &sb); err != nil || !strings.Contains(sb.String(), "Buffered") {
		t.Fatalf("post-commit WriteXML missing new book: %v %s", err, sb.String())
	}

	// Second transaction: the commit-installed shared snapshot covers
	// reads, and a rollback leaves the committed state untouched.
	rollback := func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		if _, err := tx.InsertElement(doc, root[0], -1, "pamphlet"); err != nil {
			return err
		}
		if n, err := doc.CountName("pamphlet"); err != nil || n != 0 {
			t.Errorf("mid-txn CountName(pamphlet) = %d, %v; want 0 (dirty read)", n, err)
		}
		if got, err := runKeys(db, doc, "//pamphlet"); err != nil || len(got) != 0 {
			t.Errorf("mid-txn Prepare→Run //pamphlet = %d keys, %v; want 0 (dirty read)", len(got), err)
		}
		return errAbort
	}
	if err := db.Update(rollback); err != errAbort {
		t.Fatalf("rollback Update err = %v", err)
	}
	if n, _ := doc.CountName("pamphlet"); n != 0 {
		t.Fatalf("post-rollback CountName(pamphlet) = %d, want 0", n)
	}
	if n, _ := doc.CountName("book"); n != 2 {
		t.Fatalf("post-rollback CountName(book) = %d, want 2", n)
	}

	// Third transaction, with a Drop of another document racing it: the
	// Drop waits for the writer lock and must not uninstall the shared
	// snapshot before it holds it, or queries on this document fall back
	// to the live store and see the buffered insert.
	if _, err := db.LoadXMLString("other", `<x/>`); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	if err := db.Update(func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		if _, err := tx.InsertElement(doc, root[0], -1, "leaflet"); err != nil {
			return err
		}
		go func() { dropped <- db.Drop("other") }()
		// Poll for a while: the racing Drop runs up to the writer lock
		// in its own goroutine.
		for i := 0; i < 40; i++ {
			if got, err := queryKeys(db, doc, "//leaflet"); err != nil || len(got) != 0 {
				t.Errorf("mid-txn query //leaflet during Drop = %d keys, %v; want 0 (dirty read)", len(got), err)
				return nil
			}
			if got, err := runKeys(db, doc, "//leaflet"); err != nil || len(got) != 0 {
				t.Errorf("mid-txn Prepare→Run //leaflet during Drop = %d keys, %v; want 0 (dirty read)", len(got), err)
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-dropped; err != nil {
		t.Fatalf("Drop(other) after the transaction: %v", err)
	}
	if n, _ := doc.CountName("leaflet"); n != 1 {
		t.Fatalf("post-commit CountName(leaflet) = %d, want 1", n)
	}
}

// TestUpdateSnapshotUnderWriterLock: Update must check and refresh its
// shared snapshot once it holds the writer lock. When the check ran
// before the lock, a document load that won the lock in between left
// the installed snapshot stale, and the transaction's own reads fell
// back to the live store and saw its buffered writes.
func TestUpdateSnapshotUnderWriterLock(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<lib><book/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(*Txn) error { return nil }); err != nil { // installs the shared snapshot
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		// Hold the writer lock so the Update and the load below queue up
		// behind it and race for it on release.
		raw, err := db.engine.Store().BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var books []string
		var updateErr, loadErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			updateErr = db.Update(func(tx *Txn) error {
				root, err := queryKeys(db, doc, "/lib")
				if err != nil {
					return err
				}
				if _, err := tx.InsertElement(doc, root[0], -1, "book"); err != nil {
					return err
				}
				if books, err = queryKeys(db, doc, "//book"); err != nil {
					return err
				}
				return errAbort
			})
		}()
		go func() {
			defer wg.Done()
			_, loadErr = db.LoadXMLString(fmt.Sprintf("other%d", i), `<x/>`)
		}()
		time.Sleep(2 * time.Millisecond) // let both reach the writer lock
		if err := raw.Rollback(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if updateErr != errAbort || loadErr != nil {
			t.Fatalf("iteration %d: Update err = %v, load err = %v", i, updateErr, loadErr)
		}
		if len(books) != 1 {
			t.Fatalf("iteration %d: mid-txn query //book = %d keys, want 1 (dirty read)", i, len(books))
		}
	}
}

// TestExplainAnalyzeReadsHandleView: ExplainAnalyze executes on the
// state the handle reads — a snapshot's pinned version, and the last
// committed state during an open Update — never the live store.
func TestExplainAnalyzeReadsHandleView(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<lib><book/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare("//book")
	if err != nil {
		t.Fatal(err)
	}
	addBook := func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		_, err = tx.InsertElement(doc, root[0], -1, "book")
		return err
	}
	results := func(d *Document) string {
		t.Helper()
		out, err := q.ExplainAnalyze(d)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := strings.Cut(out[strings.Index(out, "results:"):], "\n")
		return line
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	snapDoc, err := sn.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(addBook); err != nil {
		t.Fatal(err)
	}

	t.Run("snapshot", func(t *testing.T) {
		if got := results(snapDoc); got != "results: 1" {
			t.Errorf("ExplainAnalyze on the snapshot handle: %q, want %q", got, "results: 1")
		}
	})
	t.Run("open transaction", func(t *testing.T) {
		var got string
		if err := db.Update(func(tx *Txn) error {
			if err := addBook(tx); err != nil {
				return err
			}
			got = results(doc)
			return errAbort
		}); err != errAbort {
			t.Fatal(err)
		}
		if got != "results: 2" {
			t.Errorf("ExplainAnalyze mid-transaction: %q, want %q (the committed state)", got, "results: 2")
		}
	})
}
