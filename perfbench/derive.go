package main

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// This file holds the benchmark's pure derivations: order statistics,
// the decision-latency histogram, the coordinator's serial fraction and
// Amdahl bound, the runner's idle and tail time, and the error tally.
// They take plain numbers so derive_test.go can pin them on synthetic
// inputs.

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianLayers returns each metric's median over rounds; a metric a
// round lacks counts as 0 there.
func medianLayers(rounds []layers) layers {
	out := layers{}
	for _, r := range rounds {
		for name := range r {
			out[name] = 0
		}
	}
	for name := range out {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[name]
		}
		out[name] = median(xs)
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs; 0 for an empty
// slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// percentileLadder lists the percentiles tailPercentile may pick, as
// num/den fractions so the rank arithmetic stays exact.
var percentileLadder = []struct {
	num, den int64
	label    string
}{
	{999999, 1000000, "p99.9999"},
	{99999, 100000, "p99.999"},
	{9999, 10000, "p99.99"},
	{999, 1000, "p99.9"},
	{99, 100, "p99"},
	{9, 10, "p90"},
	{1, 2, "p50"},
}

// tailPercentile returns the highest ladder percentile that has at least
// ten of n samples beyond it, as its fraction and label. ok is false
// when even the median has fewer than ten samples above it (n < 21).
func tailPercentile(n int64) (q float64, label string, ok bool) {
	for _, p := range percentileLadder {
		rank := (n*p.num + p.den - 1) / p.den // 1-based nearest-rank
		if n-rank >= 10 {
			return float64(p.num) / float64(p.den), p.label, true
		}
	}
	return 0, "", false
}

// histSubBits sets the latency histogram's resolution: each power of two
// is split into 2^histSubBits linear buckets, so a reported quantile is
// within 1/128 (0.8%) of the recorded value.
const histSubBits = 7

// latencyHist is a fixed-size log-linear histogram of nanosecond
// durations. Recording never allocates, so it can sit on the hot path of
// a traced run without moving the allocation counts.
type latencyHist struct {
	counts [(65 - histSubBits) << histSubBits]uint64 // the last bucket holds 2^64-1
	n      int64
}

func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)<<histSubBits + int(v>>uint(shift)) - 1<<histSubBits
}

// histBounds returns the inclusive value range bucket i covers.
func histBounds(i int) (lo, hi uint64) {
	if i < 1<<histSubBits {
		return uint64(i), uint64(i)
	}
	shift := uint(i>>histSubBits - 1)
	m := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	return m << shift, (m+1)<<shift - 1
}

func (h *latencyHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

// quantile returns the nearest-rank q-quantile as its bucket's midpoint;
// 0 when the histogram is empty.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			lo, hi := histBounds(i)
			return (float64(lo) + float64(hi)) / 2
		}
	}
	return 0
}

// serialFraction is the share of a parallel run's wall time not covered
// by its busiest worker: (wall - maxWorkerBusy) / wall, clamped to
// [0, 1]. It is the coordinator's serial work plus anything else no
// worker overlapped.
func serialFraction(wall, maxWorkerBusy float64) float64 {
	if wall <= 0 {
		return 0
	}
	s := (wall - maxWorkerBusy) / wall
	return math.Min(math.Max(s, 0), 1)
}

// amdahlBound is the speedup ceiling a serial fraction s implies at any
// worker count, 1/s. It returns 0 for s <= 0, where no ceiling applies.
func amdahlBound(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return 1 / s
}

// interval is one unit's wall-clock span, in seconds from any origin.
type interval struct{ start, end float64 }

// fanout summarizes a worker pool's unit spans. busy is the summed unit
// time and wall the span from the first start to the last end.
// idleFraction is 1 - busy/(workers*wall): the share of the pool's
// capacity left unused. tail is the time at the end during which fewer
// than workers units ran, measured from the last moment the pool was
// full; it is the whole wall when the pool never filled.
type fanout struct {
	busy, wall, idleFraction, tail float64
}

func summarizeFanout(units []interval, workers int) fanout {
	if len(units) == 0 || workers < 1 {
		return fanout{}
	}
	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*len(units))
	first, last := units[0].start, units[0].end
	var f fanout
	for _, u := range units {
		f.busy += u.end - u.start
		first = math.Min(first, u.start)
		last = math.Max(last, u.end)
		edges = append(edges, edge{u.start, +1}, edge{u.end, -1})
	}
	f.wall = last - first
	if f.wall > 0 {
		f.idleFraction = 1 - f.busy/(float64(workers)*f.wall)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	level, drop, full := 0, first, false
	for i := 0; i < len(edges); {
		t, before := edges[i].t, level
		for ; i < len(edges) && edges[i].t == t; i++ {
			level += edges[i].delta
		}
		switch {
		case level >= workers:
			full = true
		case before >= workers:
			drop = t
		}
	}
	f.tail = f.wall
	if full {
		f.tail = last - drop
	}
	return f
}

// tally counts attempted runs and the ones that errored or failed their
// correctness check; failed/attempted is the workload's error rate.
type tally struct {
	attempted, failed int
	reasons           []string
}

// record counts one run from its own error and its correctness
// verdict; a run with either fails, and both are kept as its reason.
func (t *tally) record(runErr, checkErr error) {
	t.attempted++
	if err := errors.Join(runErr, checkErr); err != nil {
		t.failed++
		t.reasons = append(t.reasons, err.Error())
	}
}

// errorRate is failed over attempted; 1 when nothing was attempted, so
// an empty run never reads as clean.
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}
