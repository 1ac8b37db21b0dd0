package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"github.com/rtsyslab/eucon/internal/metrics"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least q·n
// samples at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := rank(n, q) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// rank is the nearest rank of the q-quantile among n samples: ⌈q·n⌉, with
// the product's floating-point dust removed so that 0.9 × 100 is 90.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median sorts a copy of s and returns its middle value (the mean of the
// two middle values for an even count); 0 for an empty sample.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// fastQuartile is how a run summarizes a timing it took once per round:
// the quartile on the fast side — the first quartile of a time, the third
// of a rate. On a shared machine interference only ever adds time, and it
// comes in bursts that can cover half the rounds of a run; the fast-side
// quartile still reads the undisturbed rounds then, where a median would
// not, while a real slowdown moves every round and so moves it too.
func fastQuartile(perRound []float64, higherIsFaster bool) float64 {
	s := append([]float64(nil), perRound...)
	sort.Float64s(s)
	if higherIsFaster {
		return percentile(s, 0.75)
	}
	return percentile(s, 0.25)
}

// tailSteps are the percentiles a tail metric may fall back to, highest
// first.
var tailSteps = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile applies the tail rule: report the workload's fixed
// percentile want when at least minBeyond of the n samples lie beyond it,
// otherwise the highest lower step that has them (the median when even
// that fails). Full-size runs always have the samples for want; the
// fallback only engages in -smoke runs.
func tailPercentile(n int, want float64) float64 {
	for _, q := range tailSteps {
		if q > want {
			continue
		}
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// digest is the trace digest: FNV-64a over the IEEE-754 bits of every
// float fed to it, in order. Two runs with equal digests handed the
// controller bit-identical (u, rates) sequences.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(vs []float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
		_, _ = d.h.Write(d.buf[:]) // hash.Hash.Write never fails
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// tracking accumulates the loop-quality statistics of the tail window of
// closed-loop runs: per processor the absolute error of the window mean
// against the set point and the window's standard deviation.
type tracking struct {
	errs, stds []float64
}

// addWindow folds one run's tail window in: rows[k][p] is processor p's
// utilization at period k, and the window is the last n rows.
func (t *tracking) addWindow(rows [][]float64, n int, setPoints []float64) {
	for p, b := range setPoints {
		win := metrics.Window(metrics.Column(rows, p), len(rows)-n, len(rows))
		t.errs = append(t.errs, math.Abs(metrics.Mean(win)-b))
		t.stds = append(t.stds, metrics.StdDev(win))
	}
}

// worst returns the largest tracking error and standard deviation seen.
func (t *tracking) worst() (err, std float64) {
	for _, v := range t.errs {
		err = math.Max(err, v)
	}
	for _, v := range t.stds {
		std = math.Max(std, v)
	}
	return err, std
}

// rms returns the root-mean-square of the per-processor window errors and
// of the window standard deviations: the seed-steady summaries reported as
// end-to-end metrics (the worst case is a max over few samples and moves
// too much between seeds to carry a relative bound).
func (t *tracking) rms() (err, std float64) {
	if len(t.errs) == 0 {
		return 0, 0
	}
	for i := range t.errs {
		err += t.errs[i] * t.errs[i]
		std += t.stds[i] * t.stds[i]
	}
	n := float64(len(t.errs))
	return math.Sqrt(err / n), math.Sqrt(std / n)
}
