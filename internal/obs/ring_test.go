package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestRingNewestFirst(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); len(got) != 0 || got == nil {
		t.Fatalf("empty ring snapshot = %#v, want empty non-nil", got)
	}
	for i := 1; i <= 3; i++ {
		r.Add(i)
	}
	if got, want := r.Snapshot(), []int{3, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("partial ring = %v, want %v", got, want)
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 10; i++ {
		r.Add(i)
	}
	if got, want := r.Snapshot(), []int{10, 9, 8, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped ring = %v, want %v", got, want)
	}
	// Exactly one more lap lands on the same slots.
	for i := 11; i <= 14; i++ {
		r.Add(i)
	}
	if got, want := r.Snapshot(), []int{14, 13, 12, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second lap = %v, want %v", got, want)
	}
}

func TestRingCapacityOne(t *testing.T) {
	r := NewRing[string](1)
	r.Add("a")
	r.Add("b")
	if got, want := r.Snapshot(), []string{"b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("capacity-1 ring = %v, want %v", got, want)
	}
}

func TestRingDisabled(t *testing.T) {
	for _, size := range []int{0, -1} {
		r := NewRing[int](size)
		if r != nil {
			t.Fatalf("NewRing(%d) = %p, want nil", size, r)
		}
		r.Add(1) // a nil ring drops entries
		if got := r.Snapshot(); got != nil {
			t.Fatalf("disabled ring snapshot = %v, want nil", got)
		}
	}
}

// TestRingConcurrent races writers against a snapshotting reader; under
// -race it checks the locking, and every snapshot must be a run of
// consecutive values per writer, newest first, never longer than the
// capacity.
func TestRingConcurrent(t *testing.T) {
	const writers, perWriter, size = 4, 2000, 16
	type entry struct{ w, i int }
	r := NewRing[entry](size)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(entry{w, i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(snap []entry) {
		if len(snap) > size {
			t.Fatalf("snapshot holds %d entries, capacity %d", len(snap), size)
		}
		// Within one writer, entries appear newest first.
		last := map[int]int{}
		for _, e := range snap {
			if prev, ok := last[e.w]; ok && e.i >= prev {
				t.Fatalf("writer %d: entry %d after %d in a newest-first snapshot", e.w, e.i, prev)
			}
			last[e.w] = e.i
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check(r.Snapshot())
		}
	}
	snap := r.Snapshot()
	check(snap)
	if len(snap) != size {
		t.Fatalf("final snapshot holds %d entries, want %d", len(snap), size)
	}
}
