package obs

// Q-error accumulators for the cost-model observatory: lock-free striped
// histograms over the multiplicative estimation error
//
//	q = max(est/act, act/est) >= 1
//
// in the histogram core's power-of-two buckets. An
// accumulator is a plain data structure, not a registered metric: the
// cost observatory keys one per operator class (axis × rewrite-rule
// provenance) per engine, and the engine's exposition writes them out as
// labeled series. Observations are two or three atomic adds into the
// caller's stripe; the enabled switch gates them like every other
// obs write.

import (
	"math"
	"sync/atomic"
)

// qerrBuckets is the number of q-error buckets: bucket i counts
// observations with q in [2^i, 2^(i+1)), and the last absorbs everything
// larger.
const qerrBuckets = cellBuckets

// QErrorAccum accumulates q-error observations for one operator class:
// one histogram core cell plus the under-estimate count and the largest
// q beside it. The zero value is ready to use. Safe for concurrent use.
type QErrorAccum struct {
	cell
	under [numStripes]stripe // observations with act > est (upper-bound miss)
	// maxBits holds the float64 bits of the largest q observed (q >= 1,
	// so the bit patterns order like the values and a CAS max works).
	maxBits atomic.Uint64
}

// QError returns the q-error of one (estimate, actual) pair:
// max(est/act, act/est), with zeroes smoothed to 1 so the ratio stays
// finite (an estimate of 0 against 8 actuals is a q-error of 8).
func QError(est, act uint64) float64 {
	e, a := est, act
	if e == 0 {
		e = 1
	}
	if a == 0 {
		a = 1
	}
	if e >= a {
		return float64(e) / float64(a)
	}
	return float64(a) / float64(e)
}

// Observe records one estimated-vs-actual cardinality pair when
// collection is enabled, and returns the pair's q-error (1 when
// collection is off, since nothing was recorded).
func (h *QErrorAccum) Observe(est, act uint64) float64 {
	if !enabled.Load() {
		return 1
	}
	e, a := est, act
	if e == 0 {
		e = 1
	}
	if a == 0 {
		a = 1
	}
	var ratio uint64
	under := a > e
	if under {
		ratio = a / e
	} else {
		ratio = e / a
	}
	// floor(log2(floor(x))) == floor(log2(x)) for x >= 1, and halving
	// shifts q in [2^i, 2^(i+1)) into the cell's bucket i.
	h.observe(ratio >> 1)
	if under {
		h.under[stripeIdx()].v.Add(1)
	}
	q := QError(est, act)
	qb := math.Float64bits(q)
	for {
		cur := h.maxBits.Load()
		if qb <= cur || h.maxBits.CompareAndSwap(cur, qb) {
			break
		}
	}
	return q
}

// QErrorSnapshot is a point-in-time copy of an accumulator's state.
type QErrorSnapshot struct {
	Count   uint64
	Under   uint64 // observations where the actual exceeded the estimate
	Max     float64
	Buckets [qerrBuckets]uint64 // Buckets[i]: q in [2^i, 2^(i+1))
}

// Snapshot folds the stripes into a consistent-enough copy.
func (h *QErrorAccum) Snapshot() QErrorSnapshot {
	c := h.snapshot()
	s := QErrorSnapshot{Count: c.Count, Buckets: c.Buckets}
	for i := range h.under {
		s.Under += h.under[i].v.Load()
	}
	if b := h.maxBits.Load(); b != 0 {
		s.Max = math.Float64frombits(b)
	}
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed q-errors: the top of the power-of-two bucket containing the
// quantile, clamped to the largest q observed. Zero when empty, never
// below 1 otherwise.
func (s QErrorSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	top := float64(uint64(2) << uint(quantileBucket(&s.Buckets, s.Count, q)))
	// Max trails the bucket add in a racing Observe; 1 is always a bound.
	return math.Min(top, math.Max(s.Max, 1))
}
