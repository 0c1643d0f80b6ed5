package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"vamana/internal/bench"
)

// workload is one traffic mix over one store configuration.
type workload struct {
	Name string
	// Factor is the XMark scale factor of the generated document.
	Factor float64
	// File selects a file-backed store that set-up loads, closes and
	// reopens; otherwise the store is in memory (the vamanad default).
	File bool
	// CacheDiv, when set, reopens with CachePages = store pages/CacheDiv.
	CacheDiv int
	// ReadRate is the open-loop /v1/query arrival rate, per second.
	ReadRate float64
	// CommitRate is the embedded writer's DB.Update rate; 0 = no writer.
	CommitRate float64
	// Fixed are the paper's queries (IDs) the mix sends as repeated
	// expressions.
	Fixed []string
	// LookupShare is the share of requests drawn from the lookup
	// templates instead of Fixed.
	LookupShare float64
}

// paperQueries are the IDs of the paper's five workload queries
// (internal/bench).
var paperQueries = []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

var workloads = []*workload{
	{
		Name:     "serve-hot",
		Factor:   0.05,
		ReadRate: 60,
		Fixed:    paperQueries,
	},
	{
		Name:        "adhoc-cold",
		Factor:      0.1,
		File:        true,
		CacheDiv:    8,
		ReadRate:    100,
		Fixed:       []string{"Q2", "Q3", "Q4"},
		LookupShare: 0.8,
	},
	{
		Name:       "update-mix",
		Factor:     0.05,
		File:       true,
		ReadRate:   50,
		CommitRate: 20,
		Fixed:      paperQueries,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func xpathOf(id string) string {
	q, ok := bench.QueryByID(id)
	if !ok {
		panic("unknown query " + id)
	}
	return q.XPath
}

// xpaths returns the XPath of each query ID.
func xpaths(ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = xpathOf(id)
	}
	return out
}

// lookupWeights split the lookup share among the lookups templates.
var lookupWeights = []float64{0.35, 0.35, 0.2, 0.1}

// Literal draws are Zipf-Mandelbrot skewed, P(rank k) ∝ (zipfV+k)^-zipfS:
// hot keys repeat, but most draws fall outside the 256 plans the plan
// cache keeps.
const (
	zipfS = 1.1
	zipfV = 200
)

// Streams separate the seed's random sequences so adding draws to one
// phase leaves the others unchanged.
const (
	streamOpen uint64 = iota + 1
	streamCapacity
	streamWriter
	streamProbe
)

// mix draws the workload's request expressions. The same workload,
// value spaces, seed and stream always give the same sequence.
type mix struct {
	w     *workload
	rng   *rand.Rand
	fixed []string
	vals  [][]string
	perm  [][]int
	zipf  []*rand.Zipf
}

func newMix(w *workload, vals [][]string, seed int64, stream uint64) *mix {
	m := &mix{w: w, rng: rand.New(rand.NewPCG(uint64(seed), stream)), fixed: xpaths(w.Fixed)}
	if w.LookupShare > 0 {
		m.vals = vals
		for _, v := range vals {
			// Hot keys are spread over the document, not its first records.
			m.perm = append(m.perm, m.rng.Perm(len(v)))
			m.zipf = append(m.zipf, rand.NewZipf(m.rng, zipfS, zipfV, uint64(len(v)-1)))
		}
	}
	return m
}

func (m *mix) next() string {
	if m.w.LookupShare > 0 && m.rng.Float64() < m.w.LookupShare {
		t, u := 0, m.rng.Float64()
		for t < len(lookupWeights)-1 && u >= lookupWeights[t] {
			u -= lookupWeights[t]
			t++
		}
		i := m.perm[t][m.zipf[t].Uint64()]
		return fmt.Sprintf(lookups[t].Format, m.vals[t][i])
	}
	return m.fixed[m.rng.IntN(len(m.fixed))]
}

func (m *mix) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// schedule returns the open-loop send times: n arrivals at a fixed rate,
// as offsets from the phase start.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}
