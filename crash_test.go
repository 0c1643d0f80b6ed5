package vamana

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vamana/internal/pager/faultfs"
)

// Crash-matrix test: for every write-path operation, kill the storage
// backend at every write and every sync the operation's commit performs
// (with the failing write torn at several offsets), reopen the surviving
// bytes, and assert the database is EITHER wholly in the pre-operation
// state OR wholly in the post-operation state — or that the failure is a
// typed storage error. Silent corruption — a store that opens and reads
// but matches neither state — fails the test.

const crashBaseXML = `<site><a>one</a><b kind="x">two</b><c>three</c></site>`
const crashSecondXML = `<extra><p>alpha</p><p>beta</p></extra>`

// crashOp is one write-path operation under test. Each op mutates the
// store through the public API — a document load, or one DB.Update
// transaction per mutation kind. Backend I/O happens inside the op (the
// transaction's durable group commit, or the explicit Flush) and inside
// Close, so apply returns its error: expected during fault runs, fatal
// during clean runs.
type crashOp struct {
	name  string
	apply func(t *testing.T, db *DB, doc *Document) error
}

// keyOf evaluates expr and returns the first result's FLEX key.
func keyOf(t *testing.T, db *DB, doc *Document, expr string) string {
	t.Helper()
	q, err := db.Prepare(expr, WithoutOptimization(), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background(), doc, Ordered())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatalf("no result for %q", expr)
	}
	return keys[0]
}

// insertOp is a crashOp that inserts one node under the first match of
// parent in its own transaction.
func insertOp(parent string, insert func(tx *Txn, doc *Document, key string) (string, error)) func(*testing.T, *DB, *Document) error {
	return func(t *testing.T, db *DB, doc *Document) error {
		key := keyOf(t, db, doc, parent)
		return db.Update(func(tx *Txn) error {
			_, err := insert(tx, doc, key)
			return err
		})
	}
}

var crashOps = []crashOp{
	{"load", func(t *testing.T, db *DB, _ *Document) error {
		_, err := db.LoadXMLString("doc2", crashSecondXML)
		return err
	}},
	{"insert-element", insertOp("/site", func(tx *Txn, doc *Document, key string) (string, error) {
		return tx.InsertElement(doc, key, -1, "d")
	})},
	{"insert-text", insertOp("//a", func(tx *Txn, doc *Document, key string) (string, error) {
		return tx.InsertText(doc, key, -1, "more")
	})},
	{"insert-attribute", insertOp("//c", func(tx *Txn, doc *Document, key string) (string, error) {
		return tx.InsertAttribute(doc, key, "id", "9")
	})},
	{"update-text", func(t *testing.T, db *DB, doc *Document) error {
		key := keyOf(t, db, doc, "//b/text()")
		return db.Update(func(tx *Txn) error { return tx.UpdateText(doc, key, "TWO") })
	}},
	{"delete-subtree", func(t *testing.T, db *DB, doc *Document) error {
		key := keyOf(t, db, doc, "//c")
		return db.Update(func(tx *Txn) error { return tx.DeleteSubtree(doc, key) })
	}},
	// "flush" crashes an explicit mid-session Flush (rather than the one
	// inside Close) after a committed transaction.
	{"flush", func(t *testing.T, db *DB, doc *Document) error {
		if err := insertOp("/site", func(tx *Txn, doc *Document, key string) (string, error) {
			return tx.InsertElement(doc, key, -1, "f")
		})(t, db, doc); err != nil {
			return err
		}
		return db.engine.Store().Flush()
	}},
}

// crashFingerprint captures the full observable state of a store: every
// document serialized back to XML, in document-name order.
func crashFingerprint(db *DB) (string, error) {
	var sb strings.Builder
	names := db.Documents()
	sort.Strings(names) // Documents() order is unspecified
	for _, name := range names {
		doc, err := db.Document(name)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := doc.WriteXML("a", &buf); err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%s: %s\n", name, buf.Bytes())
	}
	return sb.String(), nil
}

// crashBaseSnapshot builds the clean pre-operation store and returns its
// surviving bytes plus its fingerprint.
func crashBaseSnapshot(t *testing.T) (snap []byte, preFP string) {
	t.Helper()
	b := faultfs.New()
	db, err := openWith(Options{}, benchKnobs{backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("doc", crashBaseXML); err != nil {
		t.Fatal(err)
	}
	preFP, err = crashFingerprint(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Snapshot(), preFP
}

// TestVerifyFile checks the page-layer sweep on a real file: clean after
// close, and still able to report a damaged page — here the catalog root
// itself, which makes the store unopenable as a database — by page id.
func TestVerifyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.vam")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("doc", crashBaseXML); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checked, corrupt, err := VerifyFile(path)
	if err != nil || len(corrupt) != 0 || checked == 0 {
		t.Fatalf("clean store: checked=%d corrupt=%v err=%v", checked, corrupt, err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 2*8192+100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(Options{Path: path}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("open of damaged store: err=%v, want ErrChecksum", err)
	}
	_, corrupt, err = VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 1 || corrupt[0] != 2 {
		t.Fatalf("corrupt pages = %v, want [2]", corrupt)
	}
}

func TestCrashMatrix(t *testing.T) {
	baseSnap, preFP := crashBaseSnapshot(t)

	for _, op := range crashOps {
		op := op
		t.Run(op.name, func(t *testing.T) {
			// Clean run: establish the post-operation fingerprint and count
			// the backend writes and syncs the operation's commits perform.
			clean := faultfs.FromBytes(baseSnap)
			db, err := openWith(Options{}, benchKnobs{backend: clean})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := db.Document("doc")
			if err != nil {
				t.Fatal(err)
			}
			w0, s0 := clean.Writes(), clean.Syncs()
			if err := op.apply(t, db, doc); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			nWrites, nSyncs := clean.Writes()-w0, clean.Syncs()-s0
			if nWrites == 0 || nSyncs == 0 {
				t.Fatalf("op performed no backend I/O (writes=%d syncs=%d)", nWrites, nSyncs)
			}
			post, err := openWith(Options{}, benchKnobs{backend: faultfs.FromBytes(clean.Snapshot())})
			if err != nil {
				t.Fatal(err)
			}
			postFP, err := crashFingerprint(post)
			if err != nil {
				t.Fatal(err)
			}
			post.Close()
			if postFP == preFP {
				t.Fatal("operation did not change the observable state; matrix would prove nothing")
			}

			sawPre, sawPost := false, false
			run := func(name string, arm func(b *faultfs.Backend)) {
				b := faultfs.FromBytes(baseSnap)
				db, err := openWith(Options{}, benchKnobs{backend: b})
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				doc, err := db.Document("doc")
				if err != nil {
					t.Fatalf("%s: doc: %v", name, err)
				}
				arm(b)
				if err := op.apply(t, db, doc); err != nil && !b.Dead() {
					t.Fatalf("%s: op failed without an injected fault: %v", name, err)
				}
				db.Close() // flush crashes here for most ops; errors expected

				db2, err := openWith(Options{}, benchKnobs{backend: faultfs.FromBytes(b.Snapshot())})
				if err != nil {
					// A typed storage error is an acceptable (diagnosable)
					// outcome; anything untyped is not.
					if errors.Is(err, ErrTornMeta) || errors.Is(err, ErrChecksum) {
						return
					}
					t.Fatalf("%s: reopen failed with untyped error: %v", name, err)
				}
				defer db2.Close()
				fp, err := crashFingerprint(db2)
				if err != nil {
					if errors.Is(err, ErrChecksum) || errors.Is(err, ErrTornMeta) {
						return
					}
					t.Fatalf("%s: fingerprint failed with untyped error: %v", name, err)
				}
				switch fp {
				case preFP:
					sawPre = true
				case postFP:
					sawPost = true
				default:
					t.Fatalf("%s: SILENT CORRUPTION — store opened cleanly but matches neither state:\n got: %s\n pre: %s\npost: %s",
						name, fp, preFP, postFP)
				}
			}

			for k := 1; k <= nWrites; k++ {
				for _, tear := range []int{0, 4096, 8192} {
					k, tear := k, tear
					run(fmt.Sprintf("write%d/tear%d", k, tear), func(b *faultfs.Backend) {
						b.FailWrite(k, tear)
					})
				}
			}
			for k := 1; k <= nSyncs; k++ {
				k := k
				run(fmt.Sprintf("sync%d", k), func(b *faultfs.Backend) {
					b.FailSync(k)
				})
			}
			if !sawPre || !sawPost {
				t.Errorf("matrix did not observe both recovery outcomes: pre=%v post=%v", sawPre, sawPost)
			}
		})
	}
}
