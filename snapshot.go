package vamana

import (
	"context"
	"errors"
	"sync/atomic"

	"vamana/internal/core"
	"vamana/internal/mass"
)

// Snapshots and transactions.
//
// A Snapshot is a cheap, refcounted handle on the database's latest
// committed state: every read through it — queries, node fetches, XML
// export — observes exactly that state, however many writers commit
// underneath. DB.Update runs a function inside a write transaction whose
// mutations become visible atomically on commit, made durable with one
// group-committed journal flush shared by concurrent committers.
//
// DB.Query, Query.Run and direct Document reads are auto-snapshot
// wrappers: once DB.Update has installed a shared snapshot they serve
// from it (so no read observes an open transaction's buffered writes,
// and a long result stream never observes a concurrent writer), and
// before that they read the live store directly, which is equivalent
// while no transaction has ever run. Document.readFrom makes that
// choice for every read.

var (
	// ErrDocumentBusy reports a Drop refused because open snapshots or
	// in-flight result streams could still read the document.
	ErrDocumentBusy = mass.ErrDocumentBusy
	// ErrReadOnlySnapshot reports a mutation attempted through a
	// snapshot-bound handle.
	ErrReadOnlySnapshot = mass.ErrReadOnlySnapshot
	// ErrTxnDone reports a use of a transaction that already committed or
	// rolled back.
	ErrTxnDone = mass.ErrTxnDone
	// ErrSnapshotClosed reports a query started on a closed Snapshot.
	ErrSnapshotClosed = errors.New("vamana: snapshot is closed")
)

// SnapshotUsage aggregates the work served from one snapshot: queries
// finished, result nodes delivered, and the storage they consumed.
type SnapshotUsage = core.SnapshotUsage

// Snapshot is a consistent read-only view of the database at one
// committed version. It is safe for concurrent use; reads through it
// cost the same as reads on the DB. Close releases it — result streams
// still draining keep the underlying version pinned until they finish,
// so Close never invalidates an in-flight iterator.
type Snapshot struct {
	db     *DB
	cs     *core.Snapshot
	closed atomic.Bool
}

// Snapshot pins the latest committed state and returns a handle reading
// exclusively from it. The snapshot must be Closed; until then, pages it
// can still see are retained (copy-on-write) and Drop of any document
// fails with ErrDocumentBusy.
func (db *DB) Snapshot() (*Snapshot, error) {
	cs, err := db.engine.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{db: db, cs: cs}, nil
}

// Epoch reports the committed version the snapshot pinned. Epochs
// increase with every commit, so two snapshots compare by recency.
func (sn *Snapshot) Epoch() uint64 { return sn.cs.Epoch() }

// Usage reports the cumulative work served from this snapshot.
func (sn *Snapshot) Usage() SnapshotUsage { return sn.cs.Usage() }

// Documents lists the document names in the snapshot, sorted.
func (sn *Snapshot) Documents() []string { return sn.cs.Store().Documents() }

// Document returns a handle for name bound to this snapshot: all reads
// through it observe the pinned version, and mutations fail with
// ErrReadOnlySnapshot. The error for an unknown name satisfies
// errors.Is(err, ErrNoSuchDocument).
func (sn *Snapshot) Document(name string) (*Document, error) {
	if sn.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	id, ok := sn.cs.Store().DocID(name)
	if !ok {
		return nil, wrapNoDoc(mass.ErrNoDoc, name)
	}
	return &Document{db: sn.db, id: id, name: name, snap: sn}, nil
}

// Query is DB.Query against the snapshot's pinned version.
func (sn *Snapshot) Query(doc *Document, expr string) (*Results, error) {
	return sn.QueryContext(context.Background(), doc, expr)
}

// QueryContext is DB.QueryContext against the snapshot's pinned version,
// whichever handle doc is: the result stream's document handle is bound
// to the snapshot so StringValue and friends read the same pinned
// version the results came from. Plans compile against the snapshot's
// frozen statistics and stay cached for the snapshot's whole life — a
// snapshot keeps serving cached plans however hard the live store is
// updated underneath.
func (sn *Snapshot) QueryContext(ctx context.Context, doc *Document, expr string, opts ...QueryOption) (*Results, error) {
	if doc.snap != sn {
		c := *doc
		c.snap = sn
		doc = &c
	}
	return sn.db.QueryContext(ctx, doc, expr, opts...)
}

// Close releases the snapshot. Idempotent; safe while result streams
// opened from it are still draining (the pinned version is released when
// the last of them finishes).
func (sn *Snapshot) Close() error {
	if sn.closed.CompareAndSwap(false, true) {
		return sn.cs.Close()
	}
	return nil
}

// acquireShared returns the installed shared snapshot with a reference
// held, or nil when there is none, it is stale, or it lost a race with
// release. Callers must Unref after starting their query (the iterator
// holds its own pin from then on).
func (db *DB) acquireShared() *core.Snapshot {
	sn := db.shared.Load()
	if sn == nil {
		return nil
	}
	if sn.Gen() < db.engine.Store().CommitGen() {
		// Stale — a document load committed past it. (Writes buffered
		// inside an open Update do not advance CommitGen, so the snapshot
		// keeps serving the latest committed state throughout a
		// transaction, and commits install their replacement before the
		// generation moves.) Uninstall so its pinned pages reclaim;
		// reads fall back to the live store, which no transaction is
		// writing, until the next Update installs a fresh one.
		if db.shared.CompareAndSwap(sn, nil) {
			sn.Close()
		}
		return nil
	}
	if !sn.TryRef() {
		return nil
	}
	return sn
}

// installShared is the commit hook that publishes a fresh shared
// snapshot for the auto-snapshot read path, releasing the previous one.
// It runs inside Update's commit with the store's writer lock held, so
// it only swaps pointers and drops a reference.
func (db *DB) installShared(sn *core.Snapshot) {
	if old := db.shared.Swap(sn); old != nil {
		old.Close()
	}
}

// dropShared uninstalls the shared snapshot (before Drop and Close, so
// its pins do not hold pages or block the operation indefinitely).
func (db *DB) dropShared() {
	if old := db.shared.Swap(nil); old != nil {
		old.Close()
	}
}

// refreshShared ensures a fresh shared snapshot is installed, so every
// auto-snapshot read path — queries and direct Document reads alike —
// has a committed version to serve from. Update calls it before running
// its function: otherwise reads during the first-ever transaction (no
// commit has installed a snapshot yet) would fall back to the live
// trees and observe the transaction's buffered writes.
func (db *DB) refreshShared() {
	if sn := db.acquireShared(); sn != nil {
		sn.Unref()
		return
	}
	sn, err := db.engine.Snapshot()
	if err != nil {
		return
	}
	if !db.shared.CompareAndSwap(nil, sn) {
		// Lost an install race; the winner is at least as fresh.
		sn.Close()
	}
}

// Txn is an open write transaction, passed to the function run by
// DB.Update. All mutations made through it become visible atomically
// when the function returns nil; none survive when it returns an error.
// A Txn is bound to its DB.Update call: it must not be used after the
// function returns, and it is not safe for concurrent use.
type Txn struct {
	db *DB
	u  *mass.Update
}

// Update runs fn inside a write transaction. Mutations made through the
// Txn are buffered (invisible to queries and snapshots) until fn returns
// nil, then committed as one atomic version and made durable with one
// group-committed journal flush — concurrent Update calls coalesce their
// syncs instead of paying one fsync each. When fn returns an error (or
// panics) every buffered mutation is rolled back and the store is
// exactly as before.
//
// Transactions serialize: one writer runs at a time, while readers —
// queries, snapshots, result streams — proceed unblocked throughout.
// The commit installs a fresh shared read snapshot atomically, so
// DB.Query observes the new version immediately and never falls back to
// contended live-store reads in between.
func (db *DB) Update(fn func(*Txn) error) error {
	// Make sure direct reads have a committed snapshot to serve from
	// while the transaction is open (see refreshShared).
	db.refreshShared()
	// The installed shared snapshot seeds the replacement's node caches
	// when it is still the directly preceding committed state (checked
	// under the writer lock at commit; a racing uninstall at worst costs
	// the warm start, never correctness).
	prev := db.shared.Load()
	_, err := db.engine.Update(func(u *mass.Update) error {
		return fn(&Txn{db: db, u: u})
	}, prev, db.installShared)
	return err
}

// Document returns the handle for a loaded document, for use with the
// transaction's mutation methods.
func (t *Txn) Document(name string) (*Document, error) { return t.db.Document(name) }

// target resolves the document a mutation applies to. Snapshot-bound
// handles are read-only: a mutation through one fails with
// ErrReadOnlySnapshot instead of silently writing the live document.
func target(d *Document) (mass.DocID, error) {
	if d.snap != nil {
		return 0, ErrReadOnlySnapshot
	}
	return d.id, nil
}

// InsertElement inserts a new element named name as a content child of
// the node at parentKey in d, at position pos among existing content
// children (negative or past-the-end appends). It returns the new
// node's FLEX key. Indexes and statistics update within the
// transaction; other readers see nothing until commit.
func (t *Txn) InsertElement(d *Document, parentKey string, pos int, name string) (string, error) {
	id, err := target(d)
	if err != nil {
		return "", err
	}
	k, err := t.u.InsertElement(id, flexKey(parentKey), pos, name)
	return string(k), err
}

// InsertText inserts a new text node under parentKey (see InsertElement).
func (t *Txn) InsertText(d *Document, parentKey string, pos int, value string) (string, error) {
	id, err := target(d)
	if err != nil {
		return "", err
	}
	k, err := t.u.InsertText(id, flexKey(parentKey), pos, value)
	return string(k), err
}

// InsertAttribute adds an attribute to the element at ownerKey in d.
func (t *Txn) InsertAttribute(d *Document, ownerKey, name, value string) (string, error) {
	id, err := target(d)
	if err != nil {
		return "", err
	}
	k, err := t.u.InsertAttribute(id, flexKey(ownerKey), name, value)
	return string(k), err
}

// UpdateText replaces the value of a text or attribute node, keeping the
// value index (TC statistics) exact.
func (t *Txn) UpdateText(d *Document, key, newValue string) error {
	id, err := target(d)
	if err != nil {
		return err
	}
	return t.u.UpdateText(id, flexKey(key), newValue)
}

// RenameElement changes an element's name, maintaining the name index.
func (t *Txn) RenameElement(d *Document, key, newName string) error {
	id, err := target(d)
	if err != nil {
		return err
	}
	return t.u.RenameElement(id, flexKey(key), newName)
}

// DeleteSubtree removes the node at key in d and its entire subtree.
func (t *Txn) DeleteSubtree(d *Document, key string) error {
	id, err := target(d)
	if err != nil {
		return err
	}
	return t.u.DeleteSubtree(id, flexKey(key))
}
