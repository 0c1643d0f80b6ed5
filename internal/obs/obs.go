// Package obs is VAMANA's zero-dependency observability substrate:
// process-global atomic counters and lock-free latency histograms with a
// Prometheus-text / expvar-style exposition. Every storage and execution
// layer reports into it, so a serving process can answer "what did the
// engine actually do" — page reads, index seeks, cache hits, per-axis
// scans, query latencies — without a debugger or a recompile.
//
// Counters here are process-global (they aggregate over every open DB in
// the process); per-store counters (pager I/O, B+-tree node-cache
// traffic) live as plain fields under their owners' existing locks and
// are merged into the exposition by core.Engine.WriteMetrics.
//
// The whole layer can be switched off (SetEnabled), reducing every
// hot-path instrumentation site to one shared atomic load — the serving
// fast path stays allocation-free either way, because per-run counts are
// batched in the executor and flushed once per query.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// enabled gates every counter and histogram write. Default on;
// SetEnabled toggles it at runtime (used by the metrics-overhead gate).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled switches metric collection on or off at runtime. Counters
// keep their accumulated values while disabled; they just stop moving.
func SetEnabled(on bool) { enabled.Store(on) }

// registry holds every metric in registration order for exposition.
var registry struct {
	mu         sync.Mutex
	counters   []*Counter
	histograms []*Histogram
	gauges     []*Gauge
	vecs       []*CounterVec
	histVecs   []*HistogramVec
}

// numStripes spreads each metric's hot atomics over independent cache
// lines. Concurrent serving goroutines would otherwise serialize on the
// same line for every counter bump, which costs several percent of warm
// query latency at GOMAXPROCS writers.
const numStripes = 8

// stripe is one cache-line-padded accumulator cell.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeIdx derives a stripe from the current goroutine's stack address.
// Goroutine stacks live in distinct 2KB+ spans, so the bits above the
// frame offset spread concurrent writers across stripes at the cost of a
// couple of register instructions — no TLS, no extra atomics.
func stripeIdx() uint64 {
	var b byte
	return (uint64(uintptr(unsafe.Pointer(&b))) >> 11) & (numStripes - 1)
}

// Counter is a monotonically increasing striped atomic counter,
// registered under a unique exposition name. Increments are safe from
// any goroutine.
type Counter struct {
	name    string
	help    string
	stripes [numStripes]stripe
}

// NewCounter creates and registers a counter. Names must be unique;
// registering a duplicate returns the existing counter so package-level
// metric variables stay safe under test re-initialization.
func NewCounter(name, help string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name, help: help}
	registry.counters = append(registry.counters, c)
	return c
}

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.stripes[stripeIdx()].v.Add(n)
	}
}

// Inc increments the counter by one when collection is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value (the sum over stripes).
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.stripes {
		v += c.stripes[i].v.Load()
	}
	return v
}

// Name returns the counter's exposition name.
func (c *Counter) Name() string { return c.name }

// Snapshot returns every registered metric's current value keyed by
// exposition name. Histogram series contribute <name>_count, _sum_ns and
// _p50/_p95/_p99.
// Intended for tests (monotonicity assertions) and expvar-style dumps.
func Snapshot() map[string]uint64 {
	registry.mu.Lock()
	counters := append([]*Counter(nil), registry.counters...)
	histograms := append([]*Histogram(nil), registry.histograms...)
	gauges := append([]*Gauge(nil), registry.gauges...)
	vecs := append([]*CounterVec(nil), registry.vecs...)
	histVecs := append([]*HistogramVec(nil), registry.histVecs...)
	registry.mu.Unlock()
	out := make(map[string]uint64, len(counters)+2*len(histograms))
	for _, c := range counters {
		out[c.name] = c.Value()
	}
	for _, g := range gauges {
		out[g.name] = uint64(g.Value())
	}
	for _, v := range vecs {
		v.snapshotInto(out)
	}
	for _, v := range histVecs {
		v.snapshotInto(out)
	}
	for _, h := range histograms {
		h.snapshotInto(out)
	}
	return out
}

// WriteText writes every registered metric in Prometheus text exposition
// format (counters as `counter`, histograms as cumulative `histogram`
// with nanosecond `le` bounds).
func WriteText(w io.Writer) error {
	registry.mu.Lock()
	counters := append([]*Counter(nil), registry.counters...)
	histograms := append([]*Histogram(nil), registry.histograms...)
	gauges := append([]*Gauge(nil), registry.gauges...)
	vecs := append([]*CounterVec(nil), registry.vecs...)
	histVecs := append([]*HistogramVec(nil), registry.histVecs...)
	registry.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		if err := WriteCounterText(w, c.name, c.help, c.Value()); err != nil {
			return err
		}
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.Value()); err != nil {
			return err
		}
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].name < vecs[j].name })
	for _, v := range vecs {
		if err := v.writeText(w); err != nil {
			return err
		}
	}
	sort.Slice(histVecs, func(i, j int) bool { return histVecs[i].name < histVecs[j].name })
	for _, v := range histVecs {
		if err := v.writeText(w); err != nil {
			return err
		}
	}
	for _, h := range histograms {
		if err := h.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCounterText writes one counter-typed metric line with its HELP/
// TYPE preamble — shared by the registry exposition and by layers that
// expose per-instance counters (store metrics, cache stats).
func WriteCounterText(w io.Writer, name, help string, v uint64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	return err
}

// Handler returns an HTTP handler that serves the metric exposition:
// the global registry plus any extra per-instance sections (e.g. a
// database's storage counters) appended by the callbacks.
func Handler(extra ...func(w io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteText(w); err != nil {
			return
		}
		for _, fn := range extra {
			fn(w)
		}
	})
}
