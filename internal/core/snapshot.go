package core

import (
	"errors"

	"vamana/internal/cost"
	"vamana/internal/mass"
)

// Snapshots and transactions at the engine layer. An engine Snapshot
// wraps a mass.Snapshot (a frozen, refcounted store view) with its own
// query pipeline state: a private plan cache and statistics memo bound to
// the snapshot's store. The snapshot's statistics epochs never move, so
// its cached plans never invalidate and its memoized probes never reset —
// a long-lived snapshot serves a repeated query at full cache-hit speed
// no matter how hard the live store is being updated underneath.

// snapshotPlanCacheSize bounds each snapshot's private plan cache.
// Snapshots are expected to serve a small working set of queries; the
// engine-level cache (shared, epoch-validated) stays the big one.
const snapshotPlanCacheSize = 64

// Snapshot is a frozen, refcounted view of the engine for consistent
// reads. All query entry points work exactly like their Engine
// counterparts but observe the snapshot's state; mutations are rejected
// by the underlying read-only store.
type Snapshot struct {
	view
	ms *mass.Snapshot
}

// SnapshotUsage aggregates the work served from one snapshot.
type SnapshotUsage struct {
	Queries        uint64 // iterators finished
	Results        uint64 // result nodes delivered
	PagesRead      uint64 // pager reads charged to snapshot queries
	RecordsDecoded uint64 // clustered-index records decoded
}

// Snapshot freezes the engine's current committed state. The returned
// snapshot must be Closed; queries still streaming when Close is called
// keep the underlying view pinned until they finish. Its plans compile
// against private caches: the snapshot's epochs are frozen, so entries
// stay valid for the snapshot's whole life.
func (e *Engine) Snapshot() (*Snapshot, error) {
	ms, err := e.store.Snapshot()
	if err != nil {
		return nil, err
	}
	st := ms.Store()
	sn := &Snapshot{ms: ms}
	sn.init(e, st, newPlanCache(snapshotPlanCacheSize), cost.NewMemoProbes(st), new(usageCounters))
	return sn, nil
}

// wrapShared wraps a mass.Snapshot for the auto-snapshot serving path:
// instead of private (frozen-forever) caches the snapshot reuses the
// engine's epoch-validated plan cache and statistics memo. Because the
// shared snapshot is always the newest committed state, its frozen
// epochs match the live store's, so engine-cache entries hit across
// commits for every document the commit did not touch — a writer
// updating one document does not evict every other document's plans.
// Entries stay epoch-validated, so even a snapshot gone stale compiles
// correct (merely conservative) plans. Nothing reads a shared snapshot's
// usage, so it keeps none.
func (e *Engine) wrapShared(ms *mass.Snapshot) *Snapshot {
	sn := &Snapshot{ms: ms}
	sn.init(e, ms.Store(), e.plans, e.probes, nil)
	return sn
}

// Store returns the snapshot's read-only store view.
func (sn *Snapshot) Store() *mass.Store { return sn.st }

// Gen reports the commit generation the snapshot captured; the snapshot
// is the latest committed state exactly while the live store's CommitGen
// has not moved past it.
func (sn *Snapshot) Gen() uint64 { return sn.ms.Gen() }

// Epoch reports the pinned pager version epoch.
func (sn *Snapshot) Epoch() uint64 { return sn.ms.Epoch() }

// TryRef acquires an additional reference if the snapshot is still live
// (see mass.Snapshot.TryRef). Pair with Unref.
func (sn *Snapshot) TryRef() bool { return sn.ms.TryRef() }

// Unref releases a reference taken with TryRef.
func (sn *Snapshot) Unref() { sn.ms.Unref() }

// Usage reports the cumulative work served from this snapshot (zero for
// shared auto-snapshots, which keep no usage).
func (sn *Snapshot) Usage() SnapshotUsage {
	u := sn.usage
	if u == nil {
		return SnapshotUsage{}
	}
	return SnapshotUsage{
		Queries:        u.queries.Load(),
		Results:        u.results.Load(),
		PagesRead:      u.pages.Load(),
		RecordsDecoded: u.records.Load(),
	}
}

// Close releases the snapshot's creating reference. Idempotent; safe
// while iterators opened from it are still streaming (the view stays
// pinned until the last one finishes).
func (sn *Snapshot) Close() error { return sn.ms.Close() }

// Update runs fn inside a write transaction: all mutations made through
// the passed mass.Update become visible atomically when fn returns nil,
// and are rolled back without trace when it returns an error (or
// panics). On success the commit is made durable through the
// group-commit path and the published version epoch is returned.
//
// current and install keep the auto-snapshot read path's shared
// snapshot (engine caches, see wrapShared). current returns the
// installed one while it is still the latest committed state, else nil.
// Once the writer lock is held, and before fn runs, a missing or stale
// shared snapshot is replaced by a freeze of the committed state the
// transaction starts from; under the lock no load or drop can slip in
// between that check and fn, so fn's reads never fall back to the live
// store and its buffered writes. The commit freezes the just-committed
// state and hands it to install atomically — before the store's commit
// generation advances — so the read path never sees a window where its
// snapshot is stale but no replacement exists; the replacement adopts
// the previous snapshot's decoded-node caches for every page the commit
// left untouched, so per-commit snapshots stay warm (see
// mass.CommitWith). install runs with the store's writer lock held: it
// must only swap the snapshot in and release the previous one.
func (e *Engine) Update(fn func(*mass.Update) error, current func() *Snapshot, install func(*Snapshot)) (epoch uint64, err error) {
	u, err := e.store.BeginUpdate()
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			// fn panicked or errored: discard the batch. ErrTxnDone means
			// fn finished the transaction itself — nothing left to undo.
			if rerr := u.Rollback(); rerr != nil && !errors.Is(rerr, mass.ErrTxnDone) && err == nil {
				err = rerr
			}
		}
	}()
	prev := current()
	if prev == nil {
		ms, err := u.Snapshot()
		if err != nil {
			return 0, err
		}
		prev = e.wrapShared(ms)
		install(prev)
	}
	if err := fn(u); err != nil {
		return 0, err
	}
	epoch, err = u.CommitWith(prev.ms, func(ms *mass.Snapshot) {
		install(e.wrapShared(ms))
	})
	if err != nil {
		return 0, err
	}
	committed = true
	if err := e.store.SyncCommitted(epoch); err != nil {
		return epoch, err
	}
	return epoch, nil
}
