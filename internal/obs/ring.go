package obs

import "sync"

// Ring is a fixed-capacity ring of the most recent entries — the one
// bounded ring behind the flight recorder, the slow-query log and the
// serving layer's recent/slow request rings. Add overwrites the oldest
// entry once the ring is full; Snapshot copies the entries out newest
// first. One mutex guards both, held for one slot store on Add and one
// copy on Snapshot. A nil *Ring is a disabled ring: Add drops the entry
// and Snapshot returns nil.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   uint64 // total added; the next slot is n % len(buf)
}

// NewRing returns a ring holding the last size entries, or nil (a
// disabled ring) when size is not positive.
func NewRing[T any](size int) *Ring[T] {
	if size <= 0 {
		return nil
	}
	return &Ring[T]{buf: make([]T, size)}
}

// Add records v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
	r.mu.Unlock()
}

// Snapshot returns the recorded entries, most recent first.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, min(r.n, uint64(len(r.buf))))
	for i := range out {
		out[i] = r.buf[(r.n-1-uint64(i))%uint64(len(r.buf))]
	}
	return out
}
