package obs

// The one histogram core: a striped set of power-of-two buckets. Latency
// histograms (Histogram, HistogramVec cells) and q-error accumulators
// (QErrorAccum) are all built on cell, which alone picks the bucket,
// does the atomic adds, folds the stripes, walks the buckets for a
// quantile and renders the Prometheus bucket lines.

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// cellBuckets is the number of power-of-two buckets: bucket i counts
// values in [2^(i-1), 2^i) (bucket 0 counts zero), which spans
// sub-microsecond index probes through multi-minute scans in
// nanoseconds; the last bucket absorbs everything larger.
const cellBuckets = 41

// cellStripe keeps one writer group's buckets together and away from
// the other stripes' lines (the trailing pad rounds the struct to a
// cache-line multiple).
type cellStripe struct {
	buckets [cellBuckets]atomic.Uint64
	sum     atomic.Uint64
	_       [48]byte
}

// cell is a lock-free striped bucket set. Observations are two atomic
// adds into the caller's stripe; readers fold a consistent-enough
// snapshot without stopping writers. The zero value is ready to use.
type cell struct {
	stripes [numStripes]cellStripe
}

// observe records one value. Callers check Enabled first.
func (c *cell) observe(v uint64) {
	b := bits.Len64(v) // 0 for 0, else floor(log2)+1
	if b >= cellBuckets {
		b = cellBuckets - 1
	}
	s := &c.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	s.sum.Add(v)
}

// snapshot folds the stripes together.
func (c *cell) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range c.stripes {
		st := &c.stripes[i]
		for j := range st.buckets {
			n := st.buckets[j].Load()
			s.Buckets[j] += n
			s.Count += n
		}
		s.SumNS += st.sum.Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64
	SumNS   uint64
	Buckets [cellBuckets]uint64 // Buckets[i] counts observations < 2^i ns (non-cumulative)
}

// quantileBucket returns the index of the bucket holding the q-quantile
// (0 < q <= 1) of count observations spread over buckets; count must be
// nonzero.
func quantileBucket(buckets *[cellBuckets]uint64, count uint64, q float64) int {
	target := uint64(q * float64(count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= target {
			return i
		}
	}
	return cellBuckets - 1
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed durations, at power-of-two resolution. Zero when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(uint64(1)<<uint(quantileBucket(&s.Buckets, s.Count, q)) - 1)
}

// Mean returns the mean observed duration, zero when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Merge folds another snapshot into s — used to aggregate a tenant's
// per-outcome cells into one quantile-bearing distribution.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// quantiles are the precomputed quantile gauges every histogram series
// exposes, so dashboards get tail latency without PromQL bucket math.
var quantiles = [...]struct {
	suffix string
	q      float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// series is one rendered series of a histogram family: its Prometheus
// label set ("" or `{k="v",...}`) and snapshot.
type series struct {
	labels string
	snap   HistogramSnapshot
}

// snapshotInto adds the series' <name><labels>_count/_sum_ns/_p50/_p95/
// _p99 entries to out (the Snapshot map form).
func (s series) snapshotInto(out map[string]uint64, name string) {
	base := name + s.labels
	out[base+"_count"] = s.snap.Count
	out[base+"_sum_ns"] = s.snap.SumNS
	for _, q := range quantiles {
		out[base+"_"+q.suffix] = uint64(s.snap.Quantile(q.q))
	}
}

// writeFamily writes one histogram family in Prometheus text exposition
// format: cumulative buckets with nanosecond le bounds per series, then
// the per-series quantile gauges. Writes nothing for an empty family.
func writeFamily(w io.Writer, name, help string, ss []series) error {
	if len(ss) == 0 {
		return nil
	}
	b := fmt.Appendf(nil, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, s := range ss {
		inner := "" // the label pairs without braces, to splice le in
		if s.labels != "" {
			inner = s.labels[1:len(s.labels)-1] + ","
		}
		var cum uint64
		for i, n := range s.snap.Buckets {
			cum += n
			// Skip empty leading buckets and stop at the first bucket
			// that covers every observation.
			if cum == 0 {
				continue
			}
			b = fmt.Appendf(b, "%s_bucket{%sle=\"%d\"} %d\n", name, inner, uint64(1)<<uint(i)-1, cum)
			if cum == s.snap.Count {
				break
			}
		}
		b = fmt.Appendf(b, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
			name, inner, s.snap.Count, name, s.labels, s.snap.SumNS, name, s.labels, s.snap.Count)
	}
	for _, q := range quantiles {
		b = fmt.Appendf(b, "# TYPE %s_%s gauge\n", name, q.suffix)
		for _, s := range ss {
			b = fmt.Appendf(b, "%s_%s%s %d\n", name, q.suffix, s.labels, uint64(s.snap.Quantile(q.q)))
		}
	}
	_, err := w.Write(b)
	return err
}

// Histogram is a lock-free latency histogram over power-of-two
// nanosecond buckets: one cell, registered under an exposition name.
type Histogram struct {
	name string
	help string
	cell
}

// NewHistogram creates and registers a histogram (same uniqueness rule
// as NewCounter).
func NewHistogram(name, help string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, h := range registry.histograms {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, help: help}
	registry.histograms = append(registry.histograms, h)
	return h
}

// Observe records one duration when collection is enabled.
func (h *Histogram) Observe(d time.Duration) {
	if enabled.Load() {
		h.observe(uint64(d.Nanoseconds()))
	}
}

// Snapshot copies the histogram's current buckets and sum, folding the
// stripes together.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// snapshotInto adds the histogram's entries to out.
func (h *Histogram) snapshotInto(out map[string]uint64) {
	series{snap: h.snapshot()}.snapshotInto(out, h.name)
}

// writeText writes the histogram in Prometheus text exposition format.
func (h *Histogram) writeText(w io.Writer) error {
	return writeFamily(w, h.name, h.help, []series{{snap: h.snapshot()}})
}
