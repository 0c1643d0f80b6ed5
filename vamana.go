// Package vamana is a scalable, cost-driven XPath engine — a Go
// implementation of the VAMANA system (Raghavan, Deschler, Rundensteiner;
// ICDE 2005).
//
// VAMANA stores XML documents in MASS, a multi-axis storage structure
// built on counted B+-trees over FLEX structural keys, and evaluates
// XPath 1.0 expressions with index-only, pipelined query plans. A
// cost-driven, rule-based optimizer rewrites plans using exact statistics
// probed directly from the indexes, so cost information stays correct
// under document updates with no histogram maintenance.
//
// # Quick start
//
//	db, err := vamana.Open(vamana.Options{}) // in-memory store
//	defer db.Close()
//	doc, err := db.LoadXML("auction", file)
//	res, err := db.QueryContext(ctx, doc, "//person/address",
//		vamana.WithTimeout(time.Second), vamana.WithMaxResults(1000))
//	for n, err := range res.All() {
//		if err != nil {
//			break // ctx canceled, deadline hit, or budget tripped
//		}
//		fmt.Println(n.Name, n.Value)
//	}
//
// Every query is governed: the context's cancellation and deadline are
// observed throughout execution — down to the index cursors — and
// per-query resource budgets (results, pages read, records decoded,
// wall-clock) stop runaway queries with distinct typed errors (see
// ErrCanceled, ErrDeadlineExceeded, BudgetError).
//
// All 13 XPath axes are supported, along with value, range and position
// predicates, node-set union, and the XPath 1.0 core function library.
package vamana

import (
	"context"
	"errors"
	"io"
	"iter"
	"net/http"
	"sync/atomic"
	"time"

	"vamana/internal/core"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/xmldoc"
)

// Options configures a database.
type Options struct {
	// Path is the backing page file for the MASS store. Empty keeps the
	// whole store in memory. A file-backed store persists across Open
	// calls.
	Path string
	// CachePages bounds the in-memory index page cache of a file-backed
	// store (8 KiB pages; the working set beyond it is read from disk on
	// demand). 0 selects a default of ~6K pages. This is the knob that
	// keeps memory flat however large the documents grow.
	CachePages int
	// Backend, when non-nil, overrides Path as the raw storage under the
	// page layer. Production stores use Path; Backend exists for tests
	// and tools that need to interpose on the database's I/O (e.g. fault
	// injection, read-only snapshots).
	Backend Backend
	// PlanCacheSize bounds the number of compiled query plans kept by the
	// serving fast path (DB.Query). 0 selects the default of 256 plans;
	// negative disables plan caching, making DB.Query compile on every
	// call. Cached optimized plans are invalidated automatically when
	// their document is updated (statistics-epoch based), so a hit is
	// always as fresh as a recompile.
	PlanCacheSize int
	// SlowQueryThreshold records queries (DB.Query, Snapshot.Query,
	// Query.Run) at or above this end-to-end latency into the slow-query
	// ring (DB.SlowQueries) and, when SlowQueryLog is set, as one line
	// per query there. 0 disables slow-query tracking.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one line per slow query (e.g. os.Stderr or a
	// log file). Ignored unless SlowQueryThreshold is set.
	SlowQueryLog io.Writer
	// TraceEvery samples a full TraceContext for 1 in N queries on any
	// read path (1 traces every query, 0 disables). When a query is not
	// sampled the serving hot path allocates no trace state, so sampling
	// bounds the observability overhead regardless of query rate.
	TraceEvery int
	// TraceSink receives each sampled trace after its query finishes.
	TraceSink func(*TraceContext)
	// FlightRecorderSize keeps the last N complete query traces — span
	// trees included — in a bounded ring readable via DB.RecentTraces
	// and the /debug/vamana/traces endpoint. With the recorder on, every
	// query records spans (not just the 1-in-TraceEvery samples), so a
	// query that turns out slow or budget-tripped is already captured
	// retroactively. 0 disables the recorder.
	FlightRecorderSize int
	// DefaultLimits is the resource-budget set applied to every query run
	// on this database. Per-query options (WithTimeout, WithMaxResults, …)
	// override it field by field; WithLimits replaces it. The zero value
	// leaves every budget off.
	DefaultLimits Limits
	// CostCalibration enables the observatory's feedback loop: each
	// operator class's observed estimation error feeds an EWMA
	// correction factor that the cost estimator applies on subsequent
	// compiles, and cached plans are invalidated when a factor drifts.
	// Query results are never affected — calibration can only change
	// which equivalent plan runs. Off by default.
	CostCalibration bool
}

// TraceContext is a sampled per-query execution trace: compile-vs-serve
// split, cache-hit status, end-to-end latency, result count, storage
// consumption, and (when spans were recorded) the operator span tree.
type TraceContext = core.TraceContext

// QueryTrace is one complete recorded query trace in export form — what
// the flight recorder stores and the Chrome/text exporters consume.
type QueryTrace = obs.QueryTrace

// Span is one operator's recorded execution within a query trace.
type Span = obs.Span

// WriteChromeTrace writes traces as Chrome trace-event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, traces []*QueryTrace) error {
	return obs.WriteChromeTrace(w, traces)
}

// RequestTrace joins a serving-layer request to the engine trace that
// runs under it: attach one to a query context with WithRequestTrace and
// the engine stamps the request ID and tenant into the exported trace;
// when the run was traced (flight recorder on), the export is handed
// back in Captured instead of the flight ring so the serving layer can
// graft its own spans above it and record the combined trace
// (DB.RecordTrace) — one ring entry per request, serve and engine spans
// in one timeline.
type RequestTrace = core.RequestTrace

// WithRequestTrace returns a context carrying rt; queries run under it
// join their traces to the request (see RequestTrace).
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return core.WithRequestTrace(ctx, rt)
}

// SlowQuery is one recorded slow query (see Options.SlowQueryThreshold).
type SlowQuery = core.SlowQuery

// StorageMetrics snapshots a database's storage-level activity counters:
// pager I/O, B+-tree node-cache traffic, records decoded, statistics
// probes that reached storage.
type StorageMetrics = mass.StoreMetrics

// DB is a VAMANA database: a MASS store holding any number of indexed XML
// documents plus the query pipeline. It is safe for concurrent use.
type DB struct {
	engine   *core.Engine
	defaults Limits
	// shared is the auto-snapshot read path's current snapshot: installed
	// by DB.Update (before its function runs, and again by its commit)
	// and served (refcounted) while fresh; see Document.readFrom. Nil
	// until the first Update — reads then use the live store directly,
	// which is equivalent while no transaction has ever buffered writes.
	shared atomic.Pointer[core.Snapshot]
}

// benchKnobs are the benchmark-pairing switches kept off the public
// Options: package tests open databases with them set (openWith) to pair
// a feature against its absence. Results are identical either way.
type benchKnobs struct {
	// execBatch sets the executor's pull-batch size (0 selects the
	// default; 1 is tuple-at-a-time execution).
	execBatch int
	// noCostObservatory turns off the cost-model observatory's
	// per-query fold (DB.CostProfile then reports unavailable).
	noCostObservatory bool
	// noChecksumVerify skips per-page CRC32C verification on reads
	// (pages are still stamped on write).
	noChecksumVerify bool
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) { return openWith(opts, benchKnobs{}) }

// openWith is Open plus the benchmark-pairing knobs.
func openWith(opts Options, k benchKnobs) (*DB, error) {
	e, err := core.Open(core.Options{
		Path:                   opts.Path,
		CachePages:             opts.CachePages,
		Backend:                opts.Backend,
		DisableChecksumVerify:  k.noChecksumVerify,
		PlanCacheSize:          opts.PlanCacheSize,
		SlowQueryThreshold:     opts.SlowQueryThreshold,
		SlowQueryLog:           opts.SlowQueryLog,
		TraceEvery:             opts.TraceEvery,
		TraceSink:              opts.TraceSink,
		FlightRecorderSize:     opts.FlightRecorderSize,
		ExecBatch:              k.execBatch,
		DisableCostObservatory: k.noCostObservatory,
		CostCalibration:        opts.CostCalibration,
	})
	if err != nil {
		return nil, err
	}
	return &DB{engine: e, defaults: opts.DefaultLimits}, nil
}

// Close flushes indexes and releases the store.
func (db *DB) Close() error {
	db.dropShared()
	return db.engine.Close()
}

// Document is a handle to one loaded document. A handle obtained from
// DB reads the latest committed state — never an open transaction's
// buffered writes; one obtained from Snapshot.Document reads that
// snapshot's pinned version, and transactions reject it as read-only.
type Document struct {
	db   *DB
	id   mass.DocID
	name string
	// snap binds the handle to a snapshot's frozen view; nil for live
	// handles.
	snap *Snapshot
}

// readFrom is the one decision about which committed state a handle
// reads — for queries, prepared runs and direct reads alike: the pinned
// snapshot for snapshot-bound handles; otherwise the shared committed
// snapshot when one is installed, so no read observes an open
// transaction's buffered writes; otherwise nil, meaning the live store
// (no snapshot exists, so no transaction has ever run — DB.Update
// installs one before its function starts). When ref is true the caller
// holds a reference on the shared snapshot and must Unref it once its
// read, or its query's startup, is done.
func (d *Document) readFrom() (sn *core.Snapshot, ref bool) {
	if d.snap != nil {
		return d.snap.cs, false
	}
	if sn := d.db.acquireShared(); sn != nil {
		return sn, true
	}
	return nil, false
}

// readStore returns the store readFrom selects, plus a release to call
// when the read finishes.
func (d *Document) readStore() (*mass.Store, func()) {
	sn, ref := d.readFrom()
	switch {
	case sn == nil:
		return d.db.engine.Store(), func() {}
	case ref:
		return sn.Store(), sn.Unref
	default:
		return sn.Store(), func() {}
	}
}

// LoadXML shreds and indexes the XML document from r under a unique name.
// Loading is streaming; memory use does not grow with document size.
func (db *DB) LoadXML(name string, r io.Reader) (*Document, error) {
	id, err := db.engine.Load(name, r)
	if err != nil {
		return nil, err
	}
	return &Document{db: db, id: id, name: name}, nil
}

// LoadXMLString is LoadXML from a string.
func (db *DB) LoadXMLString(name, src string) (*Document, error) {
	id, err := db.engine.LoadString(name, src)
	if err != nil {
		return nil, err
	}
	return &Document{db: db, id: id, name: name}, nil
}

// Document returns the handle for a previously loaded document. The
// error for an unknown name satisfies errors.Is(err, ErrNoSuchDocument).
func (db *DB) Document(name string) (*Document, error) {
	id, ok := db.engine.Store().DocID(name)
	if !ok {
		return nil, wrapNoDoc(mass.ErrNoDoc, name)
	}
	return &Document{db: db, id: id, name: name}, nil
}

// Documents lists the loaded document names.
func (db *DB) Documents() []string { return db.engine.Store().Documents() }

// Drop removes a document and all its index entries. Dropping an unknown
// name fails with an error satisfying errors.Is(err, ErrNoSuchDocument);
// dropping a document that open snapshots or in-flight result streams
// could still read fails with one satisfying errors.Is(err,
// ErrDocumentBusy) — close them and retry.
func (db *DB) Drop(name string) error {
	// Release the auto-snapshot first: it pins every document and would
	// otherwise make the drop spuriously busy. It reinstalls on the next
	// transactional commit.
	db.dropShared()
	if err := db.engine.Store().DropDocument(name); err != nil {
		if errors.Is(err, mass.ErrNoDoc) {
			return wrapNoDoc(err, name)
		}
		return err
	}
	return nil
}

// Name returns the document's registered name.
func (d *Document) Name() string { return d.name }

// NodeKind classifies result nodes, following the XPath data model.
type NodeKind uint8

// Node kinds.
const (
	KindDocument  = NodeKind(xmldoc.KindDocument)
	KindElement   = NodeKind(xmldoc.KindElement)
	KindAttribute = NodeKind(xmldoc.KindAttribute)
	KindText      = NodeKind(xmldoc.KindText)
	KindComment   = NodeKind(xmldoc.KindComment)
	KindPI        = NodeKind(xmldoc.KindPI)
	KindNamespace = NodeKind(xmldoc.KindNamespace)
)

// String returns the kind's XPath-ish name.
func (k NodeKind) String() string { return xmldoc.Kind(k).String() }

// Node is one result node. Key is its FLEX structural key: a dotted,
// lexicographically document-ordered identifier ("a.d.y.c") that remains
// stable under sibling insertions.
type Node struct {
	Key   string
	Kind  NodeKind
	Name  string
	Value string
}

// Query is a compiled XPath expression, made by Prepare: the default plan
// (the paper's "VQP") without a document, or the cost-driven optimizer's
// plan ("VQP-OPT") with WithDocument. A query may be run many times and
// against any document, though an optimized plan's rewrites were chosen
// using the statistics of the document passed to WithDocument.
type Query struct {
	q *core.Query
}

// CompileOption adjusts one Prepare call.
type CompileOption func(*compileConfig)

type compileConfig struct {
	doc     *Document
	noOpt   bool
	noCache bool
}

// WithDocument compiles against doc's index statistics: the cost-driven
// optimizer runs and its rewrites are chosen using doc's exact counts.
// Without a document the default (unoptimized) plan is built, since
// there are no statistics to cost rewrites against.
func WithDocument(doc *Document) CompileOption {
	return func(c *compileConfig) { c.doc = doc }
}

// WithoutOptimization skips the cost-driven optimizer even when a
// document was supplied — the paper's baseline "VQP" plan, kept mainly
// for benchmarking the optimizer's effect.
func WithoutOptimization() CompileOption {
	return func(c *compileConfig) { c.noOpt = true }
}

// WithoutCache bypasses the plan cache: the expression is compiled
// fresh and the result is not retained. Use for one-off expressions
// that would otherwise churn the cache.
func WithoutCache() CompileOption {
	return func(c *compileConfig) { c.noCache = true }
}

// Prepare compiles expr for repeated execution with Query.Run. By
// default the compilation goes through the plan cache; add WithDocument
// to optimize against a document's statistics (cached per document and
// invalidated automatically when the document changes). Prepare with
// WithDocument is exactly the compilation half of DB.Query.
func (db *DB) Prepare(expr string, opts ...CompileOption) (*Query, error) {
	var cfg compileConfig
	for _, o := range opts {
		o(&cfg)
	}
	optimized := cfg.doc != nil && !cfg.noOpt
	var (
		q   *core.Query
		err error
	)
	switch {
	case cfg.noCache && optimized:
		q, err = db.engine.CompileOptimized(cfg.doc.id, expr)
	case cfg.noCache:
		q, err = db.engine.Compile(expr)
	default:
		var id mass.DocID
		if cfg.doc != nil {
			id = cfg.doc.id
		}
		q, err = db.engine.CompileCached(id, expr, optimized)
	}
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// Query is the one-shot serving fast path: it compiles expr with the
// cost-driven optimizer against doc's statistics and executes it, going
// through the plan cache. The first call for a given (document,
// expression) pair pays for parsing, optimization and statistics probes;
// repeated calls cost one cache lookup plus execution. Updating the
// document bumps its statistics epoch, which transparently invalidates
// its cached plans — the next Query re-optimizes against fresh counts.
//
// Query is safe for concurrent use from any number of goroutines; cached
// plans are immutable and shared.
//
// Query is QueryContext with context.Background() and the database's
// default budgets; use QueryContext to attach cancellation, a deadline,
// or per-query budgets.
func (db *DB) Query(doc *Document, expr string) (*Results, error) {
	return db.QueryContext(context.Background(), doc, expr)
}

// CacheStats reports the serving fast path's effectiveness: plan-cache
// hits/misses/evictions/invalidations and, one layer down, the
// statistics-probe memo feeding the optimizer.
type CacheStats = core.CacheStats

// CacheStats returns the database's current cache counters.
func (db *DB) CacheStats() CacheStats { return db.engine.CacheStats() }

// StorageMetrics returns the database's storage counters: page reads and
// writes, index node-cache hits/misses/evictions, node splits, cursor
// seeks, counted-range probes, records decoded, and statistics probes
// that reached storage (memo misses).
func (db *DB) StorageMetrics() StorageMetrics { return db.engine.Store().Metrics() }

// SlowQueries returns the recorded slow queries, most recent first.
// Empty unless Options.SlowQueryThreshold was set.
func (db *DB) SlowQueries() []SlowQuery { return db.engine.SlowQueries() }

// RecentTraces returns the flight recorder's contents — the last N
// complete query traces with span trees, most recent first. Empty unless
// Options.FlightRecorderSize was set.
func (db *DB) RecentTraces() []*QueryTrace { return db.engine.Traces() }

// RecordTrace appends an externally assembled trace to the flight
// recorder — the serving daemon uses it to record request-level traces
// (serve-layer spans above a Captured engine trace, see RequestTrace).
// No-op unless Options.FlightRecorderSize was set.
func (db *DB) RecordTrace(t *QueryTrace) { db.engine.RecordTrace(t) }

// WriteMetrics writes the full metric exposition in Prometheus text
// format: the process-global execution and serving metrics followed by
// this database's storage and cache counters.
func (db *DB) WriteMetrics(w io.Writer) error { return db.engine.WriteMetrics(w) }

// CostProfile is a snapshot of the cost-model observatory: q-error
// accuracy profiles per operator class, worst offenders, and
// calibration state.
type CostProfile = core.CostProfile

// CostClassProfile summarizes one operator class (axis × rewrite-rule
// provenance) in a CostProfile.
type CostClassProfile = core.CostClassProfile

// CostOffender is the worst-misestimated observation kept per class.
type CostOffender = core.CostOffender

// CostProfile returns the observatory's current snapshot. The second
// return is false when the observatory is off (benchmark pairing only).
func (db *DB) CostProfile() (CostProfile, bool) { return db.engine.CostProfile() }

// MetricsHandler returns an HTTP handler serving WriteMetrics — mount it
// on a mux (or pass to http.ListenAndServe) to expose the database's
// metrics endpoint.
func (db *DB) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = db.WriteMetrics(w)
	})
}

// Expr returns the query's source expression.
func (q *Query) Expr() string { return q.q.Expr() }

// Optimized reports whether the cost-driven optimizer ran on this query.
func (q *Query) Optimized() bool { return q.q.Optimized() }

// Explain renders the cost-annotated physical plan, the ordered operator
// list L(P), and (for optimized queries) the rewrite decisions taken.
func (q *Query) Explain(doc *Document) (string, error) {
	return q.q.Explain(doc.id)
}

// ExplainAnalyze estimates, executes, and renders the plan with estimated
// bounds next to the actual per-operator tuple counts observed during
// execution.
func (q *Query) ExplainAnalyze(doc *Document) (string, error) {
	return q.q.ExplainAnalyze(doc.id)
}

// Run executes the query against doc. By default results stream from
// the document root in pipeline order; options adjust the run: Ordered
// delivers in document order, From sets the initial context node and
// variable bindings, and the governance options (WithTimeout,
// WithMaxResults, …) layer budgets over the database defaults.
//
// Run reads the same committed state DB.Query does: a snapshot-bound doc
// (from Snapshot.Document) runs against that snapshot's pinned version,
// and a live handle never observes an open transaction's buffered
// writes. Runs are timed, slow-logged and traced like DB.Query; a run
// from the document root also feeds the cost observatory.
func (q *Query) Run(ctx context.Context, doc *Document, opts ...QueryOption) (*Results, error) {
	cfg := doc.db.config(opts)
	if doc.snap != nil && doc.snap.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	sn, ref := doc.readFrom()
	it, err := q.q.RunContext(ctx, sn, doc.id, flexKey(cfg.start), flexVars(cfg.vars), cfg.ordered, cfg.limits)
	if ref {
		sn.Unref()
	}
	if err != nil {
		return nil, err
	}
	return &Results{doc: doc, it: it}, nil
}

func flexKey(k string) flex.Key { return flex.Key(k) }

func flexVars(vars map[string][]string) map[string][]flex.Key {
	if vars == nil {
		return nil
	}
	v := make(map[string][]flex.Key, len(vars))
	for name, keys := range vars {
		ks := make([]flex.Key, len(keys))
		for i, k := range keys {
			ks[i] = flex.Key(k)
		}
		v[name] = ks
	}
	return v
}

// Results streams a query's result node set.
//
// A fully drained Results releases its execution resources automatically;
// call Close when abandoning one early (it is idempotent, and All /
// AllKeys / Keys do it for you). After the stream ends, Err reports how:
// nil for normal exhaustion, or the typed governance error (ErrCanceled,
// ErrDeadlineExceeded, *BudgetError) that stopped the run.
type Results struct {
	doc    *Document
	it     *exec.Iterator
	closed bool
}

// Next advances to the next result and reports whether one exists. When
// the stream ends — exhausted, failed, or governed away — the underlying
// execution resources are released automatically.
func (r *Results) Next() bool {
	if r.closed {
		return false
	}
	if r.it.Next() {
		return true
	}
	r.Close()
	return false
}

// Close releases the query's pooled execution state. It is idempotent and
// safe on an already-drained Results; Err remains readable after Close.
// Only early abandonment strictly needs it — exhausting the stream (or
// using All, AllKeys or Keys) closes implicitly.
func (r *Results) Close() error {
	if !r.closed {
		r.closed = true
		r.it.Close()
	}
	return nil
}

// Key returns the current result's FLEX key without touching storage.
func (r *Results) Key() string { return string(r.it.Key()) }

// Node materializes the current result node from storage.
func (r *Results) Node() (Node, error) {
	n, err := r.it.Node()
	if err != nil {
		return Node{}, err
	}
	return Node{Key: string(n.Key), Kind: NodeKind(n.Kind), Name: n.Name, Value: n.Value}, nil
}

// StringValue computes the XPath string-value of the current result (for
// elements, the concatenated descendant text).
func (r *Results) StringValue() (string, error) {
	return r.doc.StringValue(r.Key())
}

// Err reports the first error encountered while streaming.
func (r *Results) Err() error { return r.it.Err() }

// All returns an iterator over the materialized result nodes, for use
// with range-over-func:
//
//	for n, err := range res.All() {
//		if err != nil { ... ; break }
//		use(n)
//	}
//
// A non-nil err is the stream's terminal error (governance trip or
// storage failure) and is always the last pair yielded. Breaking out
// early is safe: the results are closed when the loop exits either way.
func (r *Results) All() iter.Seq2[Node, error] {
	return func(yield func(Node, error) bool) {
		defer r.Close()
		for r.Next() {
			n, err := r.Node()
			if !yield(n, err) || err != nil {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield(Node{}, err)
		}
	}
}

// AllKeys returns an iterator over the result FLEX keys without touching
// storage. Check Err after the loop: a governed-away stream simply stops
// yielding. Results are closed when the loop exits.
func (r *Results) AllKeys() iter.Seq[string] {
	return func(yield func(string) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Key()) {
				return
			}
		}
	}
}

// Keys drains the results into a slice of FLEX keys and closes them.
func (r *Results) Keys() ([]string, error) {
	var out []string
	for r.Next() {
		out = append(out, r.Key())
	}
	return out, r.Err()
}

// Stats exposes a document's exact index statistics — the same probes the
// cost model uses (counts are O(log n), no data pages touched).
type Stats struct {
	Nodes    uint64
	Elements uint64
	Texts    uint64
}

// Stats returns node-count statistics for the document.
func (d *Document) Stats() (Stats, error) {
	s, release := d.readStore()
	defer release()
	var st Stats
	var err error
	if st.Nodes, err = s.CountNodes(d.id); err != nil {
		return st, err
	}
	if st.Elements, err = s.CountElements(d.id, ""); err != nil {
		return st, err
	}
	st.Texts, err = s.CountTexts(d.id, "")
	return st, err
}

// CountName returns the number of elements with the given name — COUNT in
// the paper's cost model.
func (d *Document) CountName(name string) (uint64, error) {
	s, release := d.readStore()
	defer release()
	return s.CountName(d.id, name)
}

// TextCount returns the number of text nodes whose value equals v — TC in
// the paper's cost model.
func (d *Document) TextCount(v string) (uint64, error) {
	s, release := d.readStore()
	defer release()
	return s.TextCount(d.id, v, "")
}

// StringValue computes the XPath string-value of the node with the given
// FLEX key.
func (d *Document) StringValue(key string) (string, error) {
	s, release := d.readStore()
	defer release()
	return s.StringValue(d.id, flex.Key(key))
}

// WriteXML serializes the node at key (and its subtree) as XML to w.
// Passing the root key of a query result exports matched fragments;
// passing "a" (the document node) exports the whole document.
func (d *Document) WriteXML(key string, w io.Writer) error {
	s, release := d.readStore()
	defer release()
	return s.SerializeSubtree(d.id, flex.Key(key), w)
}

// NumericRangeCount returns the number of text nodes whose numeric value
// lies in [lo, hi] (use math.Inf for open ends) — an O(log n) probe of
// the numeric value index backing range predicates.
func (d *Document) NumericRangeCount(lo, hi float64) (uint64, error) {
	s, release := d.readStore()
	defer release()
	return s.NumericRangeCount(d.id, lo, true, hi, true)
}

// Node fetches the node with the given FLEX key.
func (d *Document) Node(key string) (Node, bool, error) {
	s, release := d.readStore()
	defer release()
	n, ok, err := s.Node(d.id, flex.Key(key))
	if err != nil || !ok {
		return Node{}, ok, err
	}
	return Node{Key: string(n.Key), Kind: NodeKind(n.Kind), Name: n.Name, Value: n.Value}, true, nil
}
