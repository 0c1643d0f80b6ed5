// Package mass implements the Multi-Axis Storage Structure (MASS) that
// VAMANA is built around (Deschler & Rundensteiner, CIKM 2003). MASS
// stores shredded XML documents in a clustered index ordered by FLEX key
// (= document order) plus secondary indexes over element names, attribute
// names and node values. Together these provide:
//
//   - index-based access for every XPath axis from any context node,
//   - value-based lookups in a single index probe, and
//   - O(log n) counting of axis- and value-based node sets without
//     fetching any data — the statistics feed for VAMANA's cost model.
//
// A Store is safe for concurrent use; operations are serialized
// internally. Scans hold cursor state and must not span mutations of the
// store (load/update/delete); interleaving scans of the same store with
// each other is fine.
package mass

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/pager"
	"vamana/internal/xmldoc"
)

// Store is a MASS database: a set of indexed XML documents.
type Store struct {
	// writer serializes mutators at the operation level (document loads
	// and drops, and the store-level per-op mutators) or transaction
	// level (an Update holds it from Begin to Commit/Rollback), and is
	// ordered strictly before mu: a goroutine may take mu while holding
	// writer, never the reverse. Readers never touch it, so queries keep
	// flowing while a writer works — they contend only on the short mu
	// critical sections.
	writer sync.Mutex
	mu     sync.Mutex
	pg     *pager.Pager

	catalog   *btree.Tree // persistent metadata: tree roots, document registry
	clustered *btree.Tree // docID ++ flexKey -> node record
	names     *btree.Tree // element name index
	attrs     *btree.Tree // attribute name index
	elems     *btree.Tree // docID ++ flexKey -> element name (wildcard scans/counts)
	texts     *btree.Tree // docID ++ flexKey -> nil (text() scans/counts)
	values    *btree.Tree // value index over text nodes and attribute values

	docs    map[string]DocID
	nextDoc DocID

	// epochs tracks a per-document statistics epoch, bumped by every
	// mutation of that document (load, insert, update, delete, drop).
	// Consumers that cache document-derived state — compiled plans,
	// memoized statistics probes — key their entries by epoch and treat a
	// mismatch as an invalidation. Epochs are in-memory only: a reopened
	// store starts at epoch 0 with empty caches, which is trivially
	// consistent.
	epochs map[DocID]uint64

	// keyBuf is a scratch buffer for transient clustered-key lookups.
	// Only valid under mu and only for keys not retained by the callee.
	keyBuf []byte

	// recordsDecoded and statProbes are plain counters guarded by mu:
	// node records decoded from the clustered index, and statistics
	// probes (COUNT/TC) executed against storage. Probes answered by the
	// optimizer's memo never reach the store, so this is the memo-miss
	// side of the probe split.
	recordsDecoded uint64
	statProbes     uint64

	// Snapshot/transaction state — see snapshot.go and txn.go.
	//
	// gen counts mutations — every one, including those buffered inside
	// an open transaction — and drives the publish short-circuit.
	// commitGen counts changes to the *committed* state only:
	// transaction commits, document loads and drops, and the store's
	// own per-operation mutators (outside a transaction) advance it;
	// buffered transaction writes do not (inTxn, guarded by mu, tells
	// the two apart). Lock-free reads of commitGen let DB.Query test whether a
	// shared snapshot still equals the latest committed version — during
	// an open transaction it does, however many writes the transaction
	// has buffered. publishedGen/pubValid record the generation whose
	// state was last published to the pager's committed layer.
	// cachePages remembers the configured cache budget so snapshot
	// stores and post-rollback reloads size their node caches
	// consistently.
	gen          atomic.Uint64
	commitGen    atomic.Uint64
	inTxn        bool
	publishedGen uint64
	pubValid     bool
	cachePages   int

	// ro marks a snapshot store: a frozen read-only clone whose trees
	// read through an epoch-pinned pager view. snapOwner points back at
	// the owning Snapshot so iterator pinning refcounts it.
	ro        bool
	snapOwner *Snapshot

	// readers counts in-flight iterators per document on a live store;
	// snapCount counts open snapshots. Both make DropDocument refuse
	// with ErrDocumentBusy instead of deleting pages under a reader.
	readers   map[DocID]int
	snapCount int

	// syncMu serializes durable group commits; syncedEpoch is the newest
	// pager version epoch known durable (both file-backed stores only).
	syncMu      sync.Mutex
	syncedEpoch uint64
}

// StoreMetrics is a snapshot of the store's storage-level activity:
// pager I/O, B+-tree node-cache traffic aggregated across all seven
// index trees, clustered records decoded, and statistics probes that
// reached storage.
type StoreMetrics struct {
	Pager          pager.Metrics
	Index          btree.Metrics
	RecordsDecoded uint64
	StatProbes     uint64
}

// Metrics returns a snapshot of the store's storage counters.
func (s *Store) Metrics() StoreMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := StoreMetrics{
		Pager:          s.pg.Metrics(),
		RecordsDecoded: s.recordsDecoded,
		StatProbes:     s.statProbes,
	}
	m.Index.Add(s.catalog.Metrics())
	for _, slot := range s.treeNames() {
		m.Index.Add((*slot).Metrics())
	}
	return m
}

// Options configures a Store.
type Options struct {
	// Path is the backing page file. Empty means an in-memory store.
	Path string
	// CachePages bounds the total deserialized index pages kept in
	// memory for file-backed stores (spread across the six index trees).
	// 0 means the default (~6K pages, about 50 MB of 8 KiB pages). Lower
	// it for memory-constrained deployments; raise it for hot stores.
	CachePages int
	// Backend, when non-nil, overrides Path as the storage to open the
	// pager over (used by tests to inject faults below the pager).
	Backend pager.Backend
	// DisableChecksumVerify skips per-page CRC verification on reads.
	// Diagnostics and benchmarking only.
	DisableChecksumVerify bool
}

// ErrNoDoc is returned when an operation names a document that is not
// loaded in the store.
var ErrNoDoc = errors.New("mass: unknown document")

// Open creates or reopens a store.
func Open(opts Options) (*Store, error) {
	var pg *pager.Pager
	var err error
	switch {
	case opts.Backend != nil:
		pg, err = pager.OpenBackend(pager.Config{
			Backend:               opts.Backend,
			DisableChecksumVerify: opts.DisableChecksumVerify,
		})
		if err != nil {
			return nil, err
		}
	case opts.Path == "":
		pg = pager.NewMemory()
	default:
		b, berr := pager.NewFileBackend(opts.Path)
		if berr != nil {
			return nil, berr
		}
		pg, err = pager.OpenBackend(pager.Config{
			Backend:               b,
			DisableChecksumVerify: opts.DisableChecksumVerify,
		})
		if err != nil {
			b.Close()
			return nil, err
		}
	}
	s := &Store{
		pg:         pg,
		docs:       make(map[string]DocID),
		epochs:     make(map[DocID]uint64),
		readers:    make(map[DocID]int),
		nextDoc:    1,
		cachePages: opts.CachePages,
	}
	meta := pg.UserMeta()
	catalogRoot := pager.PageID(binary.LittleEndian.Uint32(meta[:4]))
	if catalogRoot == pager.InvalidPage {
		if err := s.initTrees(); err != nil {
			pg.Close()
			return nil, err
		}
		s.applyCacheBudget(opts.CachePages)
		return s, nil
	}
	if err := s.loadCatalog(catalogRoot); err != nil {
		pg.Close()
		return nil, err
	}
	s.applyCacheBudget(opts.CachePages)
	return s, nil
}

// applyCacheBudget spreads the page-cache budget across the index trees.
// The clustered index gets half (it sees most traffic); the rest share
// the remainder.
func (s *Store) applyCacheBudget(pages int) {
	if pages <= 0 {
		pages = 6144
	}
	s.clustered.SetMaxCache(pages / 2)
	rest := pages / 2 / 5
	for _, t := range []*btree.Tree{s.names, s.attrs, s.elems, s.texts, s.values} {
		t.SetMaxCache(rest)
	}
	s.catalog.SetMaxCache(16)
}

func (s *Store) initTrees() error {
	var err error
	newTree := func() *btree.Tree {
		if err != nil {
			return nil
		}
		var t *btree.Tree
		t, err = btree.New(s.pg)
		return t
	}
	s.catalog = newTree()
	s.clustered = newTree()
	s.names = newTree()
	s.attrs = newTree()
	s.elems = newTree()
	s.texts = newTree()
	s.values = newTree()
	return err
}

// catalog key prefixes.
const (
	catTree = "T" // catTree + name -> root page id (u32)
	catDoc  = "D" // catDoc + docName -> docID (u32)
	catSeq  = "S" // next document id (u32)
)

func (s *Store) treeNames() map[string]**btree.Tree {
	return map[string]**btree.Tree{
		"clustered": &s.clustered,
		"names":     &s.names,
		"attrs":     &s.attrs,
		"elems":     &s.elems,
		"texts":     &s.texts,
		"values":    &s.values,
	}
}

func (s *Store) loadCatalog(root pager.PageID) error {
	var err error
	s.catalog, err = btree.Load(s.pg, root)
	if err != nil {
		return fmt.Errorf("mass: load catalog: %w", err)
	}
	for name, slot := range s.treeNames() {
		v, ok, err := s.catalog.Get([]byte(catTree + name))
		if err != nil {
			return err
		}
		if !ok || len(v) != 4 {
			return fmt.Errorf("mass: catalog missing tree %q", name)
		}
		t, err := btree.Load(s.pg, pager.PageID(binary.LittleEndian.Uint32(v)))
		if err != nil {
			return fmt.Errorf("mass: load tree %q: %w", name, err)
		}
		*slot = t
	}
	if v, ok, err := s.catalog.Get([]byte(catSeq)); err != nil {
		return err
	} else if ok && len(v) == 4 {
		s.nextDoc = DocID(binary.LittleEndian.Uint32(v))
	}
	// Restore the document registry.
	c := s.catalog.NewCursor()
	for ok := c.Seek([]byte(catDoc)); ok && len(c.Key()) > 0 && c.Key()[0] == catDoc[0]; ok = c.Next() {
		v, err := c.Value()
		if err != nil {
			return err
		}
		if len(v) == 4 {
			s.docs[string(c.Key()[1:])] = DocID(binary.LittleEndian.Uint32(v))
		}
	}
	return c.Err()
}

// Flush persists all index pages and the catalog.
func (s *Store) Flush() error {
	if s.ro {
		return ErrReadOnlySnapshot
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// publishLocked flushes every tree's dirty nodes to the pager, records
// the tree roots in the catalog, and commits the batch as the next pager
// version — the point at which the current state becomes visible to new
// snapshots. Publication is cheap when nothing changed since the last
// one, and durability is separate (flushLocked, SyncCommitted).
func (s *Store) publishLocked() error {
	if s.pubValid && s.gen.Load() == s.publishedGen {
		return nil
	}
	for name, slot := range s.treeNames() {
		t := *slot
		if err := t.Flush(); err != nil {
			return err
		}
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], uint32(t.Root()))
		if err := s.catalogPutIfChanged([]byte(catTree+name), v[:]); err != nil {
			return err
		}
	}
	var seq [4]byte
	binary.LittleEndian.PutUint32(seq[:], uint32(s.nextDoc))
	if err := s.catalogPutIfChanged([]byte(catSeq), seq[:]); err != nil {
		return err
	}
	if err := s.catalog.Flush(); err != nil {
		return err
	}
	var meta [32]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(s.catalog.Root()))
	if s.pg.UserMeta() != meta {
		s.pg.SetUserMeta(meta)
	}
	if err := s.pg.CommitVersion(); err != nil {
		return err
	}
	s.publishedGen = s.gen.Load()
	s.pubValid = true
	return nil
}

func (s *Store) flushLocked() error {
	if err := s.publishLocked(); err != nil {
		return err
	}
	return s.pg.Flush()
}

// catalogPutIfChanged writes a catalog entry only when its value actually
// changes, keeping Flush idempotent: a flush of an unmodified store
// dirties no pages (which also keeps VerifyPages from re-stamping — and
// thereby hiding — damage in catalog pages before the sweep reads them).
func (s *Store) catalogPutIfChanged(k, v []byte) error {
	cur, ok, err := s.catalog.Get(k)
	if err != nil {
		return err
	}
	if ok && bytes.Equal(cur, v) {
		return nil
	}
	_, err = s.catalog.Put(k, v)
	return err
}

// Close flushes and releases the store.
func (s *Store) Close() error {
	if s.ro {
		return ErrReadOnlySnapshot
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	err := s.flushLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.pg.Close()
}

// VerifyPages checksums every durable page of the store after flushing
// any buffered state, returning the number of pages checked and the ids
// that failed verification. In-memory stores report zero pages checked.
func (s *Store) VerifyPages() (checked int, corrupt []pager.PageID, err error) {
	if s.ro {
		return 0, nil, ErrReadOnlySnapshot
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pg.InMemory() {
		if err := s.flushLocked(); err != nil {
			return 0, nil, err
		}
	}
	return s.pg.Verify()
}

// LoadDocument shreds the XML document from r and indexes it under the
// given unique name, returning its DocID. Loading is streaming: memory use
// is bounded by the index caches, not the document size.
func (s *Store) LoadDocument(name string, r io.Reader) (DocID, error) {
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro {
		return 0, ErrReadOnlySnapshot
	}
	if _, exists := s.docs[name]; exists {
		return 0, fmt.Errorf("mass: document %q already loaded", name)
	}
	d := s.nextDoc
	s.nextDoc++
	s.bumpEpochLocked(d)
	err := xmldoc.Parse(r, func(n xmldoc.Node) error { return s.indexNode(d, n) })
	if err != nil {
		// Loading failed midway; remove the partial document so the store
		// stays consistent.
		s.removeDocNodesLocked(d)
		return 0, err
	}
	s.docs[name] = d
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], uint32(d))
	if _, err := s.catalog.Put([]byte(catDoc+name), v[:]); err != nil {
		return 0, err
	}
	return d, nil
}

// indexNode inserts one shredded node into every applicable index.
func (s *Store) indexNode(d DocID, n xmldoc.Node) error {
	if len(n.Name) > maxIndexedValue {
		return fmt.Errorf("mass: name %q exceeds %d bytes", n.Name[:32]+"...", maxIndexedValue)
	}
	if _, err := s.clustered.Put(clusteredKey(d, n.Key), encodeRecord(n)); err != nil {
		return err
	}
	switch n.Kind {
	case xmldoc.KindElement:
		if _, err := s.names.Put(nameKey(n.Name, d, n.Key), nil); err != nil {
			return err
		}
		if _, err := s.elems.Put(docKey(d, n.Key), []byte(n.Name)); err != nil {
			return err
		}
	case xmldoc.KindAttribute:
		if _, err := s.attrs.Put(nameKey(n.Name, d, n.Key), nil); err != nil {
			return err
		}
		if err := s.putValueEntry(valueTagAttr, d, n.Key, n.Value); err != nil {
			return err
		}
	case xmldoc.KindText:
		if _, err := s.texts.Put(docKey(d, n.Key), nil); err != nil {
			return err
		}
		if err := s.putValueEntry(valueTagText, d, n.Key, n.Value); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) putValueEntry(tag byte, d DocID, k flex.Key, v string) error {
	_, trunc := indexedValue(v)
	var flags []byte
	if trunc {
		flags = []byte{valueFlagTruncated}
	}
	if _, err := s.values.Put(valueKey(tag, v, d, k), flags); err != nil {
		return err
	}
	kind := xmldoc.KindText
	if tag == valueTagAttr {
		kind = xmldoc.KindAttribute
	}
	return s.putNumericEntries(kind, d, k, v)
}

// removeDocNodesLocked deletes every index entry belonging to doc d. Used
// for cleanup of failed loads and by DropDocument.
func (s *Store) removeDocNodesLocked(d DocID) {
	lo, hi := clusteredDocRange(d)
	c := s.clustered.NewCursor()
	// Collect first (cursors don't survive mutation), then delete.
	type entry struct {
		key  flex.Key
		node xmldoc.Node
	}
	var all []entry
	for ok := c.Seek(lo); ok && c.InRange(hi); ok = c.Next() {
		_, fk := splitClusteredKey(c.Key())
		v, err := c.Value()
		if err != nil {
			continue
		}
		n, err := decodeRecord(v)
		if err != nil {
			continue
		}
		n.Key = fk
		all = append(all, entry{fk, n})
	}
	for _, e := range all {
		s.deleteNodeIndexEntries(d, e.node)
		s.clustered.Delete(clusteredKey(d, e.key))
	}
}

func (s *Store) deleteNodeIndexEntries(d DocID, n xmldoc.Node) {
	switch n.Kind {
	case xmldoc.KindElement:
		s.names.Delete(nameKey(n.Name, d, n.Key))
		s.elems.Delete(docKey(d, n.Key))
	case xmldoc.KindAttribute:
		s.attrs.Delete(nameKey(n.Name, d, n.Key))
		s.values.Delete(valueKey(valueTagAttr, n.Value, d, n.Key))
		s.deleteNumericEntries(n.Kind, d, n.Key, n.Value)
	case xmldoc.KindText:
		s.texts.Delete(docKey(d, n.Key))
		s.values.Delete(valueKey(valueTagText, n.Value, d, n.Key))
		s.deleteNumericEntries(n.Kind, d, n.Key, n.Value)
	}
}

// Epoch returns the document's current statistics epoch. Any mutation of
// the document bumps it, so an epoch captured alongside cached
// document-derived state (an optimized plan, a memoized COUNT probe)
// detects staleness with one comparison.
func (s *Store) Epoch(d DocID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs[d]
}

// bumpEpochLocked invalidates cached document-derived state after a
// mutation. Called with mu held, including on failed partial mutations —
// a spurious bump only costs one redundant recomputation. It also
// advances the store generation, and — outside a transaction, where the
// mutation changes committed state immediately — the commit generation,
// which marks any shared auto-snapshot stale. Buffered transaction
// writes leave commitGen alone: the latest committed version is
// unchanged until Commit, which advances it once for the whole batch.
func (s *Store) bumpEpochLocked(d DocID) {
	s.epochs[d]++
	s.gen.Add(1)
	if !s.inTxn {
		s.commitGen.Add(1)
	}
}

// Gen returns the store's mutation generation: it advances on every
// mutation of any document, including writes buffered inside an open
// transaction.
func (s *Store) Gen() uint64 { return s.gen.Load() }

// CommitGen returns the store's commit generation: it advances exactly
// when the committed state changes (transaction commits, document loads
// and drops, and store-level per-op mutations). Lock-free, so the serving path can
// test a shared snapshot's freshness with one atomic load.
func (s *Store) CommitGen() uint64 { return s.commitGen.Load() }

// BumpEpoch advances the document's statistics epoch without a data
// mutation, dropping cached plans and memoized probes derived from it.
// The cost-calibration feedback loop calls this when a correction factor
// drifts far enough that plans costed under the old factor should be
// re-optimized on their next lookup. The committed data is unchanged,
// so the commit generation stays put: a calibration bump never marks a
// shared snapshot stale.
func (s *Store) BumpEpoch(d DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochs[d]++
	s.gen.Add(1)
}

// DocID resolves a document name.
func (s *Store) DocID(name string) (DocID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[name]
	return d, ok
}

// DocName resolves a document id back to its name, empty when unknown.
// Documents are few (one catalog entry each), so a linear sweep beats
// maintaining a reverse map; callers are trace/log paths, not hot ones.
func (s *Store) DocName(d DocID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, id := range s.docs {
		if id == d {
			return n
		}
	}
	return ""
}

// Documents returns the loaded document names, sorted.
func (s *Store) Documents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.docs))
	for n := range s.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropDocument removes a document and all its index entries. It refuses
// with ErrDocumentBusy while any snapshot is open or any iterator is
// streaming the document: dropping would delete pages mid-read.
func (s *Store) DropDocument(name string) error {
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro {
		return ErrReadOnlySnapshot
	}
	d, ok := s.docs[name]
	if !ok {
		return ErrNoDoc
	}
	if s.snapCount > 0 {
		return fmt.Errorf("%w: %q has %d open snapshot(s)", ErrDocumentBusy, name, s.snapCount)
	}
	if n := s.readers[d]; n > 0 {
		return fmt.Errorf("%w: %q has %d in-flight reader(s)", ErrDocumentBusy, name, n)
	}
	s.removeDocNodesLocked(d)
	s.bumpEpochLocked(d)
	delete(s.docs, name)
	delete(s.readers, d)
	_, err := s.catalog.Delete([]byte(catDoc + name))
	return err
}

// Node fetches the node stored under (d, k).
func (s *Store) Node(d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeLocked(d, k)
}

// nodeLockedFor is nodeLocked with per-query governance: the record decode
// is charged against lim's decoded-records budget before the probe runs.
func (s *Store) nodeLockedFor(d DocID, k flex.Key, lim *govern.Limiter) (xmldoc.Node, bool, error) {
	if err := lim.AddRecords(1); err != nil {
		return xmldoc.Node{}, false, err
	}
	return s.nodeLocked(d, k)
}

func (s *Store) nodeLocked(d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	// Hot path: executed once per parent/self probe during pipelined
	// execution. The scratch key and the zero-copy View avoid two
	// allocations per probe.
	s.keyBuf = s.keyBuf[:0]
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], uint32(d))
	s.keyBuf = append(append(s.keyBuf, db[:]...), k...)
	var n xmldoc.Node
	var decodeErr error
	s.recordsDecoded++
	ok, err := s.clustered.View(s.keyBuf, func(v []byte) {
		n, decodeErr = decodeRecord(v)
	})
	if err != nil || !ok {
		return xmldoc.Node{}, ok, err
	}
	if decodeErr != nil {
		return xmldoc.Node{}, false, decodeErr
	}
	n.Key = k
	return n, true, nil
}

// StringValue computes the XPath string-value of the node at (d, k): for
// text/attribute/comment/PI nodes their content; for element and document
// nodes the concatenation of all descendant text nodes in document order.
func (s *Store) StringValue(d DocID, k flex.Key) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok, err := s.nodeLocked(d, k)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("mass: no node at %q", k)
	}
	switch n.Kind {
	case xmldoc.KindElement, xmldoc.KindDocument:
		var out []byte
		lo, hi := docKeyRange(d, k.DescLower(), k.SubtreeUpper())
		c := s.texts.NewCursor()
		for ok := c.Seek(lo); ok && c.InRange(hi); ok = c.Next() {
			_, fk := splitClusteredKey(c.Key())
			tn, ok2, err := s.nodeLocked(d, fk)
			if err != nil {
				return "", err
			}
			if ok2 {
				out = append(out, tn.Value...)
			}
		}
		if err := c.Err(); err != nil {
			return "", err
		}
		return string(out), nil
	default:
		return n.Value, nil
	}
}
