package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by nearest rank.
// It sorts xs in place and returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/(a+b): the share of useful outcomes among attempts. With no
// attempts at all nothing was missed, so it is 1.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 1
	}
	return float64(a) / float64(a+b)
}

// per divides a counter delta by a count of operations, 0 when there
// were none.
func per(delta uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(delta) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
