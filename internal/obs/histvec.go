package obs

// Labeled histogram families, added for per-tenant serving SLOs: one
// latency histogram per (tenant, outcome) pair without pre-declaring
// either population. Each label combination is one histogram core cell,
// so concurrent request finishes never serialize on one cache line, and
// snapshots merge cheaply for per-tenant quantiles.
//
// This file also owns the Prometheus label-value escaping helpers. The
// text exposition spec escapes exactly three characters inside label
// values — backslash, double-quote, newline — while Go's %q escapes
// tabs, non-printables and non-ASCII too, which corrupts round-trips of
// user-supplied values (tenant names flow into labels verbatim). Every
// labeled exposition path goes through appendPromLabel.

import (
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// appendPromEscaped appends s escaped per the Prometheus text
// exposition rules for label values: `\` → `\\`, `"` → `\"`, newline →
// `\n`; every other byte (tabs, UTF-8, control characters) passes
// through verbatim.
func appendPromEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendPromLabel appends one name="value" pair with spec-correct value
// escaping.
func appendPromLabel(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = appendPromEscaped(dst, value)
	return append(dst, '"')
}

// promLabel renders one name="value" pair as a string (the convenience
// form for fmt-based writers).
func promLabel(name, value string) string {
	return string(appendPromLabel(make([]byte, 0, len(name)+len(value)+4), name, value))
}

// promLabelSet renders a full {n1="v1",n2="v2"} label set.
func promLabelSet(names, values []string) string {
	dst := make([]byte, 0, 32)
	dst = append(dst, '{')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPromLabel(dst, n, values[i])
	}
	return string(append(dst, '}'))
}

// HistogramVec is a family of latency histograms keyed by a fixed list
// of labels — per-tenant, per-outcome request latency. Cells
// materialize on first observation and live for the process; the
// serving layer bounds the label population (tenants come from
// configuration plus a catch-all, outcomes are a closed set), so the
// map never grows unbounded.
type HistogramVec struct {
	name   string
	help   string
	labels []string

	mu sync.RWMutex
	m  map[string]*histVecCell
}

// histVecCell is one label combination's histogram.
type histVecCell struct {
	values []string
	cell
}

// vecKeySep joins label values into map keys; label values containing
// it would collide, but it is a non-printable byte no sane tenant name
// or outcome label carries.
const vecKeySep = "\x1f"

// NewHistogramVec creates and registers a labeled histogram family
// (same uniqueness rule as NewCounter; uniqueness is by family name).
func NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, v := range registry.histVecs {
		if v.name == name {
			return v
		}
	}
	v := &HistogramVec{name: name, help: help, labels: labels, m: make(map[string]*histVecCell)}
	registry.histVecs = append(registry.histVecs, v)
	return v
}

// Name returns the family's exposition name.
func (v *HistogramVec) Name() string { return v.name }

// cellFor returns (creating if needed) the histogram cell for one label
// combination. values must match the family's label count.
func (v *HistogramVec) cellFor(values []string) *histVecCell {
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[key]; c == nil {
		c = &histVecCell{values: append([]string(nil), values...)}
		v.m[key] = c
	}
	return c
}

// Observe records one duration under the given label values when
// collection is enabled.
func (v *HistogramVec) Observe(d time.Duration, values ...string) {
	if !enabled.Load() {
		return
	}
	v.cellFor(values).observe(uint64(d.Nanoseconds()))
}

// Snapshot returns the current snapshot for one exact label
// combination (zero-valued when it was never observed).
func (v *HistogramVec) Snapshot(values ...string) HistogramSnapshot {
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c == nil {
		return HistogramSnapshot{}
	}
	return c.snapshot()
}

// LabeledHistogram is one cell's snapshot with its label values, in the
// family's label order.
type LabeledHistogram struct {
	Values []string
	HistogramSnapshot
}

// Cells snapshots every materialized label combination, sorted by label
// values for deterministic output.
func (v *HistogramVec) Cells() []LabeledHistogram {
	v.mu.RLock()
	cells := make([]*histVecCell, 0, len(v.m))
	for _, c := range v.m {
		cells = append(cells, c)
	}
	v.mu.RUnlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].values, cells[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	out := make([]LabeledHistogram, len(cells))
	for i, c := range cells {
		out[i] = LabeledHistogram{Values: c.values, HistogramSnapshot: c.snapshot()}
	}
	return out
}

// snapshotInto folds the family into out, one series per cell.
func (v *HistogramVec) snapshotInto(out map[string]uint64) {
	for _, s := range v.series() {
		s.snapshotInto(out, v.name)
	}
}

// writeText writes the family in Prometheus text exposition format.
func (v *HistogramVec) writeText(w io.Writer) error {
	return writeFamily(w, v.name, v.help, v.series())
}

// series renders every materialized label combination for exposition.
func (v *HistogramVec) series() []series {
	cells := v.Cells()
	out := make([]series, len(cells))
	for i, c := range cells {
		out[i] = series{labels: promLabelSet(v.labels, c.Values), snap: c.HistogramSnapshot}
	}
	return out
}
