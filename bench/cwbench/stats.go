package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// quartiles returns the first quartile, median and third quartile of
// vs with the exclusive method of Python's statistics.quantiles(n=4),
// so spreads printed here are the spreads a reader recomputes there.
// One value is its own quartiles; an empty slice yields NaNs.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	med = median(d)
	if len(d) == 1 {
		return d[0], med, d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// hist is a concurrent log-linear histogram of non-negative integer
// samples (nanoseconds, bytes): exact below 128, then 64 buckets per
// power of two, so a quantile read back is within 1.6 % of the true
// sample. Recording is one atomic add, cheap enough for every farm
// round trip of a traced crawl.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

const (
	histExact   = 128
	histSub     = 64
	histBuckets = histExact + 57*histSub
)

func histBucket(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7
	return histExact + (e-1)*histSub + int(uint64(v)>>e) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	e := (i-histExact)/histSub + 1
	mant := uint64((i-histExact)%histSub + histSub)
	lo := mant << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)].Add(1)
	h.n.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (nearest rank), 0 for an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}
