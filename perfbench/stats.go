package main

import (
	"math"
	"sort"
	"time"
)

// samples holds one operation class's raw latencies with the time each
// operation completed. Quantiles are taken from the sorted raw values,
// never from histogram buckets, so a reported p99 is a latency some
// operation actually had.
type samples struct {
	vals   []float64 // milliseconds; +Inf marks an operation that failed
	at     []float64 // completion, seconds since the phase began
	sorted []float64 // vals in ascending order, built on demand
}

func (s *samples) add(d time.Duration, at float64) {
	s.vals = append(s.vals, float64(d)/float64(time.Millisecond))
	s.at = append(s.at, at)
}

// addFailed records an operation that gave up: it misses every latency
// limit, so it sorts above every completed operation.
func (s *samples) addFailed(at float64) {
	s.vals = append(s.vals, math.Inf(1))
	s.at = append(s.at, at)
}

func (s *samples) merge(o *samples) {
	s.vals = append(s.vals, o.vals...)
	s.at = append(s.at, o.at...)
}

func (s *samples) n() int { return len(s.vals) }

func (s *samples) ascending() []float64 {
	if len(s.sorted) != len(s.vals) {
		s.sorted = append(s.sorted[:0], s.vals...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least q of all samples at or below it. It returns NaN when empty.
func (s *samples) quantile(q float64) float64 {
	return nearestRank(s.ascending(), q)
}

// beyond counts the samples strictly above the q-quantile, the number a
// tail percentile rests on.
func (s *samples) beyond(q float64) int {
	v := s.quantile(q)
	a := s.ascending()
	return len(a) - sort.Search(len(a), func(i int) bool { return a[i] > v })
}

// window returns the samples that completed in [lo, hi) seconds.
func (s *samples) window(lo, hi float64) *samples {
	w := &samples{}
	for i, t := range s.at {
		if t >= lo && t < hi {
			w.vals = append(w.vals, s.vals[i])
			w.at = append(w.at, t)
		}
	}
	return w
}

// nearestRank picks the q-quantile of ascending vals by the nearest-rank
// rule: index ceil(q*n)-1, clamped to the slice.
func nearestRank(vals []float64, q float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return vals[i]
}

// median of a small set of values (set-up repetitions, windows, samplers).
func median(vals []float64) float64 {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	return nearestRank(c, 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// ratio divides, reporting 0 for an empty base so that a layer a workload
// never touches reads as zero work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
