package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"vamana"
	"vamana/internal/baseline/dom"
	"vamana/internal/serve"
	"vamana/internal/xmark"
	"vamana/internal/xmldoc"
	"vamana/internal/xpath"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the workload's XMark factor; tests shrink it.
	scale float64
	// dir holds the run's store files; it is removed when the run ends.
	dir string
	// conns is the number of client connections (nproc).
	conns int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// maxLateness bounds the open-loop generator's p99 lateness. A run
// whose generator woke later than this did not offer the nominal rate
// and is rejected. On a quiet 2-vCPU machine the p99 is about 1 ms
// (timer granularity); under host contention it reaches several ms.
const maxLateness = 25 * time.Millisecond

// runner holds one run's state.
type runner struct {
	cfg  config
	w    *workload
	tr   *tracer // nil in untraced runs
	rep  *report
	or   *oracle
	xml  int // document bytes
	opts vamana.Options
	db   *vamana.DB
	doc  *vamana.Document
	cl   *client
	wr   *writer
	// pairs are the traced open-loop requests the probes replay.
	pairs []sample
	errs  []error // failures, first few
}

// run executes the workload and returns its report, and the spans of a
// traced run. An error means the run could not be carried out at all;
// wrong results are counted in the report instead.
func run(cfg config) (*report, *tracer, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{cfg: cfg, w: w, rep: &report{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cfg.dir)
	src, err := r.prepare()
	if err != nil {
		return nil, nil, err
	}
	if err := r.setup(src); err != nil {
		return nil, nil, err
	}
	defer func() {
		if r.db != nil {
			r.db.Close()
		}
	}()
	if err := r.measure(); err != nil {
		return nil, nil, err
	}
	r.rep.failures = r.errs
	if r.tr != nil {
		r.rep.layers = r.tr.layers()
	}
	return r.rep, r.tr, nil
}

// prepare generates the document and the oracle answers. Neither counts
// toward set-up time.
func (r *runner) prepare() (string, error) {
	factor := r.w.Factor * r.cfg.scale
	src := xmark.GenerateString(xmark.Config{Factor: factor, Seed: r.cfg.seed})
	d, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		return "", err
	}
	if r.or, err = newOracle(d, xpaths(paperQueries), r.w.LookupShare > 0); err != nil {
		return "", err
	}
	r.xml = len(src)
	r.rep.env("workload", r.w.Name)
	r.rep.env("seed", r.cfg.seed)
	r.rep.env("xmark_factor", factor)
	r.rep.env("xml_bytes", r.xml)
	r.rep.env("read_rate_qps", r.w.ReadRate)
	r.rep.env("commit_rate_per_s", r.w.CommitRate)
	r.rep.env("connections", r.cfg.conns)
	r.rep.env("nproc", runtime.NumCPU())
	r.rep.env("gomaxprocs", runtime.GOMAXPROCS(0))
	r.rep.env("go", runtime.Version())
	r.rep.env("os_arch", runtime.GOOS+"/"+runtime.GOARCH)
	r.rep.env("run_seconds", r.cfg.seconds)
	r.rep.env("traced", r.cfg.trace)
	return src, nil
}

// setup loads the document cfg.setups times and keeps the last store.
// setup_s is the median: load, and for file-backed stores flush (Close)
// and reopen. heap_mb is the live heap the kept store adds, both ends
// measured with the document source still live.
func (r *runner) setup(src string) error {
	runtime.GC()
	base := liveHeap()
	var times, loads []float64
	for i := 0; i < r.cfg.setups; i++ {
		if r.db != nil {
			if err := r.db.Close(); err != nil {
				return err
			}
			r.db = nil
			if r.opts.Path != "" {
				os.Remove(r.opts.Path)
			}
		}
		t, load, err := r.setupOnce(src, i)
		if err != nil {
			return err
		}
		times = append(times, t.Seconds())
		loads = append(loads, load.Seconds())
	}
	runtime.GC()
	r.rep.set("setup_s", median(times), "s")
	r.rep.set("heap_mb", float64(liveHeap()-base)/(1<<20), "MiB")
	runtime.KeepAlive(src)
	r.rep.set("mass.load_mb_s", float64(r.xml)/1e6/median(loads), "MB/s")
	return nil
}

func (r *runner) setupOnce(src string, i int) (total, load time.Duration, err error) {
	opts := vamana.Options{FlightRecorderSize: 128}
	if r.w.File {
		opts.Path = filepath.Join(r.cfg.dir, fmt.Sprintf("store-%d.db", i))
	}
	t0 := time.Now()
	db, err := vamana.Open(opts)
	if err != nil {
		return 0, 0, err
	}
	l0 := time.Now()
	doc, err := db.LoadXMLString("auction", src)
	l1 := time.Now()
	r.tr.record(0, 0, "mass.load", "", l0, l1)
	if err != nil {
		db.Close()
		return 0, 0, err
	}
	if r.w.File {
		pages := db.StorageMetrics().Pager.Pages
		c0 := time.Now()
		if err := db.Close(); err != nil {
			return 0, 0, err
		}
		r.tr.record(0, 0, "mass.close", "", c0, time.Now())
		if r.w.CacheDiv > 0 {
			opts.CachePages = int(pages) / r.w.CacheDiv
		}
		o0 := time.Now()
		if db, err = vamana.Open(opts); err != nil {
			return 0, 0, err
		}
		if doc, err = db.Document("auction"); err != nil {
			db.Close()
			return 0, 0, err
		}
		r.tr.record(0, 0, "mass.open", "", o0, time.Now())
	}
	total = time.Since(t0)
	r.db, r.doc, r.opts = db, doc, opts
	return total, l1.Sub(l0), nil
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loadSlices is how many open-loop/capacity slice pairs an untraced run
// alternates through.
const loadSlices = 5

// phases splits the run's seconds among its measured phases.
type phases struct {
	open, capacity    time.Duration // untraced
	base, traced, cap time.Duration // traced run: untraced baseline, traced open loop, traced capacity
}

func (r *runner) phases() phases {
	s := time.Duration(r.cfg.seconds * float64(time.Second))
	if !r.cfg.trace {
		return phases{open: s * 6 / 10, capacity: s * 4 / 10}
	}
	return phases{base: s / 4, traced: s * 4 / 10, cap: s / 4}
}

// measure serves the store on a loopback listener, drives the load and
// the writer, and checks the outcome.
func (r *runner) measure() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{DB: r.db})
	if err != nil {
		ln.Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	r.cl = newClient(ln.Addr().String(), r.cfg.conns, r.or)
	r.cl.tr = r.tr
	stopServer := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Drain(ctx)
		r.cl.close()
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}

	// Warm up: connections, and each fixed query's plan once.
	var warm []sample
	for _, x := range xpaths(r.w.Fixed) {
		warm = append(warm, r.cl.send(x, time.Now(), false))
	}
	r.count(warm)

	var stopWriter func() []commitRec
	if r.w.CommitRate > 0 {
		t, err := findTargets(r.db, r.doc)
		if err != nil {
			stopServer()
			return err
		}
		r.wr = newWriter(r.db, r.doc, t, r.cfg.seed, r.tr)
		stopWriter = r.startWriter()
	}

	ph := r.phases()
	open := newMix(r.w, r.or.values, r.cfg.seed, streamOpen)
	capMix := newMix(r.w, r.or.values, r.cfg.seed, streamCapacity)
	var capMu sync.Mutex
	draw := func() string {
		capMu.Lock()
		defer capMu.Unlock()
		return capMix.next()
	}
	var lateness []time.Duration
	if !r.cfg.trace {
		// Alternate open-loop and capacity slices, so both metrics span
		// the whole run; capacity is the median of its slices.
		var samples []sample
		var rates []float64
		for k := 0; k < loadSlices; k++ {
			n := int(r.w.ReadRate * ph.open.Seconds() / loadSlices)
			ss, late := r.cl.openLoop(open.take(n), schedule(n, r.w.ReadRate), r.cfg.conns, false)
			samples = append(samples, ss...)
			lateness = append(lateness, late...)
			cs, el := r.cl.closedLoop(draw, r.cfg.conns, ph.capacity/loadSlices, false)
			r.count(cs)
			rates = append(rates, float64(len(cs))/el.Seconds())
		}
		r.count(samples)
		r.readMetrics(samples)
		r.rep.set("read_capacity_qps", median(rates), "1/s")
	} else {
		lateness = r.tracedPhases(ph, open, draw)
	}

	var commits []commitRec
	if stopWriter != nil {
		commits = stopWriter()
	}
	if err := stopServer(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if r.cfg.trace {
		if err := r.probes(); err != nil {
			return err
		}
		if r.wr == nil {
			commits = r.commitProbe()
		}
		r.commitLayers(commits)
	}
	r.commitMetrics(commits)

	late := make([]float64, len(lateness))
	for i, d := range lateness {
		late[i] = ms(d)
	}
	p99 := quantile(late, 0.99)
	r.rep.set("gen_lateness_p99_ms", p99, "ms")
	if p99 > ms(maxLateness) {
		r.fail(fmt.Errorf("load generator ran late: p99 %.2f ms > %v", p99, maxLateness))
	}

	if err := r.storeSize(); err != nil {
		return err
	}
	if r.wr != nil {
		if err := r.endChecks(); err != nil {
			r.fail(err)
		}
	}
	r.rep.set("failed_frac", float64(r.rep.failed)/float64(max(r.rep.attempted, 1)), "ratio")
	return nil
}

// count adds samples to the attempted and failed totals.
func (r *runner) count(samples []sample) {
	r.rep.attempted += len(samples)
	r.rep.failed += failures(samples, &r.errs)
}

func (r *runner) fail(err error) {
	r.rep.attempted++
	r.rep.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// readMetrics derives the open-loop latency metrics.
func (r *runner) readMetrics(samples []sample) {
	lat := millis(samples, (*sample).latency)
	r.rep.set("read_samples", float64(len(samples)), "count")
	r.rep.set("read_p50_ms", quantile(lat, 0.5), "ms")
	r.rep.set("read_p90_ms", quantile(lat, 0.9), "ms")
	r.rep.set("read_p99_ms", quantile(lat, 0.99), "ms")
	r.rep.set("read_ttfb_p50_ms", quantile(millis(samples, (*sample).ttfb), 0.5), "ms")
}

// millis applies f to every sample, in milliseconds.
func millis(samples []sample, f func(*sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = ms(f(&samples[i]))
	}
	return out
}

// startWriter runs the writer at the workload's commit rate; the
// returned function stops it, waits for it and returns its commits.
func (r *runner) startWriter() func() []commitRec {
	cs0, sm0 := r.db.CacheStats(), r.db.StorageMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.wr.run(r.w.CommitRate, stop)
	}()
	return func() []commitRec {
		close(stop)
		wg.Wait()
		r.commitDeltas(cs0, sm0)
		acks, commits, errs := r.wr.snapshot()
		r.rep.attempted += len(acks) + len(errs)
		r.rep.failed += len(errs)
		for _, err := range errs {
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Errorf("commit: %w", err))
			}
		}
		return commits
	}
}

// commitMetrics reports DB.Update latency.
func (r *runner) commitMetrics(commits []commitRec) {
	if len(commits) == 0 {
		return
	}
	tot := make([]float64, len(commits))
	for i, c := range commits {
		tot[i] = ms(c.total)
	}
	r.rep.set("commits", float64(len(commits)), "count")
	r.rep.set("commit_p50_ms", quantile(tot, 0.5), "ms")
	r.rep.set("commit_p99_ms", quantile(tot, 0.99), "ms")
}

// storeSize reports the bytes the store occupies on its backend per XML
// byte: the file for a file-backed store, its pages for an in-memory one.
func (r *runner) storeSize() error {
	pages := r.db.StorageMetrics().Pager.Pages
	r.rep.set("pager.store_pages", float64(pages), "count")
	size := int64(pages) * 8192
	if r.opts.Path != "" {
		// Flush first, so the file holds everything committed.
		if err := r.db.Close(); err != nil {
			return err
		}
		st, err := os.Stat(r.opts.Path)
		if err != nil {
			return err
		}
		size = st.Size()
		db, err := vamana.Open(r.opts)
		if err != nil {
			return err
		}
		r.db = db
		if r.doc, err = db.Document("auction"); err != nil {
			return err
		}
	}
	r.rep.set("store_bytes_per_xml_byte", float64(size)/float64(r.xml), "ratio")
	return nil
}

// endChecks verifies update-mix after its run, on the store storeSize
// closed and reopened: every acknowledged change is reflected, and the
// serialized document re-parsed by the DOM oracle agrees with the store
// on Q1-Q5 and on the statistics the cost model reads.
func (r *runner) endChecks() error {
	acks, _, _ := r.wr.snapshot()
	if err := checkAcks(r.doc, acks); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return checkRoundTrip(r.db, r.doc, r.or)
}

// statTextParents name the elements whose text values the round-trip
// check compares TextCount on; increase is the one the writer updates.
var statTextParents = map[string]bool{"increase": true, "location": true, "province": true, "city": true, "country": true}

func checkRoundTrip(db *vamana.DB, doc *vamana.Document, or *oracle) error {
	var buf bytes.Buffer
	if err := doc.WriteXML("a", &buf); err != nil {
		return fmt.Errorf("WriteXML: %w", err)
	}
	d, err := dom.Parse(&buf)
	if err != nil {
		return fmt.Errorf("re-parse: %w", err)
	}
	e := dom.New(d, dom.Options{})
	for _, id := range paperQueries {
		x := xpathOf(id)
		want, err := e.Eval(x)
		if err != nil {
			return err
		}
		if len(want) != or.answers[x].Count {
			return fmt.Errorf("%s: %d results after updates, %d before", id, len(want), or.answers[x].Count)
		}
		q, err := db.Prepare(x, vamana.WithDocument(doc))
		if err != nil {
			return err
		}
		res, err := q.Run(context.Background(), doc, vamana.Ordered())
		if err != nil {
			return err
		}
		i := 0
		for res.Next() {
			n, err := res.Node()
			if err != nil {
				res.Close()
				return err
			}
			sv, err := res.StringValue()
			if err != nil {
				res.Close()
				return err
			}
			if i >= len(want) || n.Name != want[i].Name || sv != want[i].StringValue() {
				res.Close()
				return fmt.Errorf("%s: result %d differs from the re-parsed document", id, i)
			}
			i++
		}
		if err := res.Err(); err != nil {
			return err
		}
		if i != len(want) {
			return fmt.Errorf("%s: %d results, re-parsed document has %d", id, i, len(want))
		}
	}
	names := make(map[string]uint64)
	values := make(map[string]uint64)
	for _, n := range d.Nodes {
		if n.Kind == xmldoc.KindElement {
			names[n.Name]++
		}
		if n.Kind == xmldoc.KindText && n.Parent != nil && statTextParents[n.Parent.Name] {
			values[n.Value] = 0
		}
	}
	for _, n := range d.Nodes {
		if c, ok := values[n.Value]; ok && n.Kind == xmldoc.KindText {
			values[n.Value] = c + 1
		}
	}
	for name, want := range names {
		got, err := doc.CountName(name)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("CountName(%q) = %d, re-parsed document has %d", name, got, want)
		}
	}
	for v, want := range values {
		got, err := doc.TextCount(v)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("TextCount(%q) = %d, re-parsed document has %d", v, got, want)
		}
	}
	return nil
}

// cpuSeconds reads the process's GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedPhases runs the traced run's load: an untraced open-loop
// baseline, the same load traced, and a traced capacity phase, reading
// the engine's flight recorder and counters around the traced part.
func (r *runner) tracedPhases(ph phases, open *mix, draw func() string) []time.Duration {
	nA := int(r.w.ReadRate * ph.base.Seconds())
	base, late := r.cl.openLoop(open.take(nA), schedule(nA, r.w.ReadRate), r.cfg.conns, false)
	r.count(base)

	ops := newOpSelf()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ops.add(r.db.RecentTraces())
			}
		}
	}()
	cs0, sm0 := r.db.CacheStats(), r.db.StorageMetrics()
	gc0, cpu0 := cpuSeconds()
	al0 := totalAlloc()

	nB := int(r.w.ReadRate * ph.traced.Seconds())
	traced, lateB := r.cl.openLoop(open.take(nB), schedule(nB, r.w.ReadRate), r.cfg.conns, true)
	capSamples, capTime := r.cl.closedLoop(draw, r.cfg.conns, ph.cap, true)

	cs1, sm1 := r.db.CacheStats(), r.db.StorageMetrics()
	gc1, cpu1 := cpuSeconds()
	al1 := totalAlloc()
	close(stop)
	wg.Wait()
	ops.add(r.db.RecentTraces())
	r.count(traced)
	r.count(capSamples)
	late = append(late, lateB...)

	all := append(append([]sample(nil), traced...), capSamples...)
	n := len(all)
	var qw []float64
	var nodes, bytesOut, rejected int
	var stream time.Duration
	for i := range all {
		s := &all[i]
		qw = append(qw, ms(s.queueWait))
		if s.rejected {
			rejected++
		}
		if s.err == nil {
			nodes += s.nodes
			bytesOut += s.bytes
			stream += s.end.Sub(s.first)
		}
	}
	r.rep.set("serve.queue_wait_p99_ms", quantile(qw, 0.99), "ms")
	r.rep.set("serve.stream_us_per_node", us(stream)/float64(max(nodes, 1)), "us")
	r.rep.set("serve.bytes_per_node", float64(bytesOut)/float64(max(nodes, 1)), "bytes")
	r.rep.set("serve.rejected_frac", float64(rejected)/float64(max(n, 1)), "ratio")
	r.rep.set("serve.capacity_qps", float64(len(capSamples))/capTime.Seconds(), "1/s")
	r.rep.set("core.plan_cache_hit_ratio", ratio(cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses), "ratio")
	r.rep.set("core.memo_hit_ratio", ratio(cs1.ProbeHits-cs0.ProbeHits, cs1.ProbeMisses-cs0.ProbeMisses), "ratio")
	r.rep.set("cost.stat_probes_per_compile", per(sm1.StatProbes-sm0.StatProbes, int(cs1.Misses-cs0.Misses)), "count")
	ix0, ix1 := sm0.Index, sm1.Index
	r.rep.set("btree.cache_hit_ratio", ratio(ix1.CacheHits-ix0.CacheHits, ix1.CacheMisses-ix0.CacheMisses), "ratio")
	r.rep.set("btree.evictions_per_query", per(ix1.CacheEvictions-ix0.CacheEvictions, n), "count")
	r.rep.set("btree.seeks_per_query", per(ix1.Seeks-ix0.Seeks, n), "count")
	r.rep.set("pager.reads_per_query", per(ops.pages, ops.traces), "count")
	r.rep.set("mass.records_decoded_per_query", per(ops.recs, ops.traces), "count")
	r.rep.set("runtime.alloc_bytes_per_req", per(al1-al0, n), "bytes")
	r.rep.set("runtime.gc_cpu_frac", (gc1-gc0)/max(cpu1-cpu0, 1e-9), "ratio")
	for c, v := range ops.shares() {
		r.rep.set("exec.op_self_share."+c, v, "ratio")
	}

	// The traced run's own cost: traced against untraced p50 at the
	// same rate.
	b := quantile(millis(base, (*sample).latency), 0.5)
	t := quantile(millis(traced, (*sample).latency), 0.5)
	r.rep.set("trace.overhead_frac", (t-b)/b, "ratio")
	r.pairs = traced
	return late
}

// probes times the layers below the server in-process, on the same
// store: replays of the traced requests, keys-only drains of Q1-Q5, and
// uncached compiles.
func (r *runner) probes() error {
	ctx := context.Background()
	// Paired replays: client service time minus the in-process time of
	// the same request (Prepare → Run → drain with Node).
	var over, first []float64
	var nodes int
	var nodeTime time.Duration
	for i := range r.pairs {
		s := &r.pairs[i]
		if s.err != nil || len(over) == maxPairs {
			continue
		}
		req := fmt.Sprintf("replay%d", i)
		parent := r.tr.id()
		t0 := time.Now()
		q, err := r.db.Prepare(s.expr, vamana.WithDocument(r.doc))
		t1 := time.Now()
		r.tr.record(0, parent, "core.prepare", req, t0, t1)
		if err != nil {
			return err
		}
		res, err := q.Run(ctx, r.doc)
		t2 := time.Now()
		r.tr.record(0, parent, "exec.run", req, t1, t2)
		if err != nil {
			return err
		}
		n := 0
		drain := r.tr.id()
		var tf time.Time
		for res.Next() {
			if n == 0 {
				tf = time.Now()
				r.tr.record(0, parent, "exec.first_next", req, t2, tf)
			}
			n0 := time.Now()
			if _, err := res.Node(); err != nil {
				res.Close()
				return err
			}
			n1 := time.Now()
			r.tr.record(0, drain, "mass.node", req, n0, n1)
			nodeTime += n1.Sub(n0)
			n++
		}
		t3 := time.Now()
		if err := res.Err(); err != nil {
			return err
		}
		if n == 0 {
			tf = t3
		}
		r.tr.record(drain, parent, "exec.drain", req, tf, t3)
		r.tr.record(parent, 0, "replay", req, t0, t3)
		if n != r.or.answers[s.expr].Count {
			r.fail(fmt.Errorf("replay %s: %d results, oracle has %d", s.expr, n, r.or.answers[s.expr].Count))
		}
		nodes += n
		over = append(over, ms(s.end.Sub(s.sent))-ms(t3.Sub(t0)))
		first = append(first, us(tf.Sub(t1)))
	}
	r.rep.set("serve.overhead_p50_ms", quantile(over, 0.5), "ms")
	r.rep.set("exec.first_result_us", quantile(first, 0.5), "us")
	r.rep.set("mass.node_decode_us", us(nodeTime)/float64(max(nodes, 1)), "us")

	// Keys-only drains of the paper's queries.
	for _, id := range paperQueries {
		x := xpathOf(id)
		q, err := r.db.Prepare(x, vamana.WithDocument(r.doc))
		if err != nil {
			return err
		}
		var ds []float64
		for rep := 0; rep < drainReps; rep++ {
			t0 := time.Now()
			res, err := q.Run(ctx, r.doc)
			if err != nil {
				return err
			}
			n := 0
			for res.Next() {
				n++
			}
			t1 := time.Now()
			if err := res.Err(); err != nil {
				return err
			}
			r.tr.record(0, 0, "exec.drain_keys", id, t0, t1)
			if n != r.or.answers[x].Count {
				r.fail(fmt.Errorf("drain %s: %d results, oracle has %d", id, n, r.or.answers[x].Count))
			}
			ds = append(ds, us(t1.Sub(t0)))
		}
		r.rep.set("exec.drain_us."+id, quantile(ds, 0.5), "us")
	}

	// Uncached compiles of the workload's distinct expressions.
	var exprs []string
	seen := make(map[string]bool)
	for i := range r.pairs {
		if x := r.pairs[i].expr; !seen[x] && len(exprs) < maxCompileExprs {
			seen[x] = true
			exprs = append(exprs, x)
		}
	}
	var parse, optimize []float64
	for _, x := range exprs {
		var p, full, plain []float64
		for rep := 0; rep < compileReps; rep++ {
			t0 := time.Now()
			if _, err := xpath.Parse(x); err != nil {
				return err
			}
			t1 := time.Now()
			r.tr.record(0, 0, "xpath.parse", "", t0, t1)
			t2 := time.Now()
			if _, err := r.db.Prepare(x, vamana.WithDocument(r.doc), vamana.WithoutCache()); err != nil {
				return err
			}
			t3 := time.Now()
			r.tr.record(0, 0, "core.prepare_uncached", "", t2, t3)
			if _, err := r.db.Prepare(x, vamana.WithDocument(r.doc), vamana.WithoutCache(), vamana.WithoutOptimization()); err != nil {
				return err
			}
			t4 := time.Now()
			r.tr.record(0, 0, "core.prepare_unoptimized", "", t3, t4)
			p = append(p, us(t1.Sub(t0)))
			full = append(full, us(t3.Sub(t2)))
			plain = append(plain, us(t4.Sub(t3)))
		}
		parse = append(parse, median(p))
		optimize = append(optimize, median(full)-median(plain))
	}
	r.rep.set("xpath.parse_us", mean(parse), "us")
	r.rep.set("opt.optimize_us", mean(optimize), "us")
	return nil
}

const (
	maxPairs        = 200 // paired replays per traced run
	drainReps       = 15  // keys-only drains per query
	maxCompileExprs = 100 // distinct expressions compiled uncached
	compileReps     = 5
	probeCommits    = 40 // commits of the commit probe
)

// commitProbe gives the write-path layers a figure on workloads without
// a writer: serial update-mix transactions after the load has finished.
func (r *runner) commitProbe() []commitRec {
	t, err := findTargets(r.db, r.doc)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.wr = newWriter(r.db, r.doc, t, r.cfg.seed, r.tr)
	cs0, sm0 := r.db.CacheStats(), r.db.StorageMetrics()
	for i := 0; i < probeCommits; i++ {
		r.wr.commitOne()
	}
	r.commitDeltas(cs0, sm0)
	acks, commits, errs := r.wr.snapshot()
	r.rep.attempted += len(acks) + len(errs)
	r.rep.failed += len(errs)
	for _, err := range errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Errorf("commit: %w", err))
		}
	}
	r.wr = nil // the probe is not the workload's writer: no end checks
	return commits
}

// commitDeltas reports per-commit storage and plan-cache effects since
// the given counters.
func (r *runner) commitDeltas(cs0 vamana.CacheStats, sm0 vamana.StorageMetrics) {
	_, commits, _ := r.wr.snapshot()
	cs1, sm1 := r.db.CacheStats(), r.db.StorageMetrics()
	n := len(commits)
	r.rep.set("core.plan_invalidations_per_commit", per(cs1.Invalidations-cs0.Invalidations, n), "count")
	r.rep.set("pager.pages_written_per_commit", per(sm1.Pager.Writes-sm0.Pager.Writes, n), "count")
	r.rep.set("pager.pages_stashed_per_commit", per(sm1.Pager.PagesStashed-sm0.Pager.PagesStashed, n), "count")
}

// commitLayers splits commit latency into the transaction function and
// what follows it (journal, fsync, snapshot install).
func (r *runner) commitLayers(commits []commitRec) {
	var apply, commit []float64
	for _, c := range commits {
		apply = append(apply, us(c.apply))
		commit = append(commit, us(c.total-c.apply))
	}
	r.rep.set("mass.txn_apply_us", quantile(apply, 0.5), "us")
	r.rep.set("mass.commit_us", quantile(commit, 0.5), "us")
}
