package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/lane"
)

// report accumulates what one benchmark process measures for one workload,
// round by round. A round is one set-up followed by one timed phase of a
// fixed, seed-determined amount of work; a process runs whole rounds until
// it has measured for the requested time.
type report struct {
	def  *workloadDef
	seed int64
	clk  clock
	size int // work divisor: 1 for a full run, larger under -smoke
	// traceMode marks a -trace 1 process: rounds alternate traced and
	// untraced and the per-layer metrics are reported.
	traceMode bool

	setup []float64 // set-up time per round, s

	// Timed-phase totals over all rounds.
	wall       int64 // ns
	periods    int
	mallocs    uint64
	allocBytes uint64
	attempted  int
	failed     int

	pps         []float64 // periods per second, one per round
	ppsTraced   []float64
	ppsUntraced []float64
	// Operation times, µs: each round's median and tail percentile, and how
	// many operations were timed in all. A run reports their fast-side
	// quartile over its rounds (see fastQuartile).
	opP50, opTail []float64
	opCount       int

	track       tracking
	completions int // end-to-end task instances completed
	misses      int // ... past their end-to-end deadline

	// digests holds one trace digest per unit of seeded work, each a pure
	// function of the seed; digests[0] is the one printed and pinned.
	// firstRun (closed-loop runs) or firstSweep (sweeps) is work unit 0's
	// first output, kept for the correctness check.
	digests    []uint64
	firstRun   replayRun
	firstSweep []experiments.SweepPoint
	// violations lists broken invariants; any entry fails every operation.
	violations []string

	// Traced rounds only.
	tr         tracer
	tracedWall int64     // ns timed in traced rounds
	steps      []float64 // controller Step times, µs
	collects   []float64 // farm: Step exit k → Step entry k+1, µs
	joins      []float64 // farm: launch → barrier release, ms
	resets     []float64 // sim: controller + simulator Reset, µs
	jobs       int       // sim: subtask jobs released
	tracedOps  []float64 // operation times of traced rounds, µs
	replay     []replayRun
	wire       wireTotals      // farm: server-side wire counters
	queue      lane.QueueStats // farm: server-side send queues
	tracePath  string

	// layer holds the per-layer metrics of a traced run by name.
	layer map[string]float64
}

// replayRun is the (u, rates) sequence one closed-loop run handed its
// controller, kept from round 0 of a traced process so the lower layers
// can be driven with exactly the inputs the loop produced.
type replayRun struct {
	nu    int       // processors
	width int       // processors + tasks
	seen  []float64 // flat rows of u followed by rates
}

func (r *replayRun) steps() int { return len(r.seen) / r.width }

func (r *replayRun) row(i int) (u, rates []float64) {
	row := r.seen[i*r.width : (i+1)*r.width]
	return row[:r.nu], row[r.nu:]
}

// reps scales a full-size repetition count down for a -smoke pass.
func (rep *report) reps(full int) int { return max(3, full/rep.size) }

func (rep *report) violate(msg string) { rep.violations = append(rep.violations, msg) }

// bookDigest records the trace digest of one round's unit of work and
// reports whether it is the first digest of the process. A traced process
// runs each unit twice, traced and untraced; the second digest must equal
// the first, or tracing changed what the loop computed.
func (rep *report) bookDigest(work int, sum uint64) bool {
	if work < len(rep.digests) {
		if rep.digests[work] != sum {
			rep.violate(fmt.Sprintf("work unit %d: trace digest %016x traced but %016x untraced", work, rep.digests[work], sum))
		}
		return false
	}
	rep.digests = append(rep.digests, sum)
	return work == 0
}

// addRound books one round's timed phase: periods sampling periods in wall
// ns, and the round's operation times in µs.
func (rep *report) addRound(traced bool, periods int, wall int64, ops []float64) {
	if traced {
		rep.tracedOps = append(rep.tracedOps, ops...)
	}
	sorted := append([]float64(nil), ops...)
	sort.Float64s(sorted)
	rep.opP50 = append(rep.opP50, percentile(sorted, 0.5))
	rep.opTail = append(rep.opTail, percentile(sorted, tailPercentile(len(sorted), rep.def.tailPct)))
	rep.opCount += len(ops)
	rep.periods += periods
	rep.wall += wall
	pps := float64(periods) / (float64(wall) / 1e9)
	rep.pps = append(rep.pps, pps)
	if traced {
		rep.tracedWall += wall
		rep.ppsTraced = append(rep.ppsTraced, pps)
	} else {
		rep.ppsUntraced = append(rep.ppsUntraced, pps)
	}
}

// memMark reads the allocation counters; two marks bracket a timed phase.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (rep *report) addMem(from, to memMark) {
	rep.mallocs += to.mallocs - from.mallocs
	rep.allocBytes += to.bytes - from.bytes
}

// endToEnd computes the end-to-end metrics from the accumulated rounds.
func (rep *report) endToEnd() []metric {
	trackErr, trackStd := rep.track.rms()
	per := float64(rep.periods)
	values := map[string]float64{
		"setup_s":                fastQuartile(rep.setup, false),
		"periods_per_s":          fastQuartile(rep.pps, true),
		"op_p50_us":              fastQuartile(rep.opP50, false),
		"op_tail_us":             fastQuartile(rep.opTail, false),
		"allocs_per_period":      float64(rep.mallocs) / per,
		"alloc_bytes_per_period": float64(rep.allocBytes) / per,
		"mem_peak_rss_mb":        peakRSSMB(),
		"track_err":              trackErr,
		"track_std":              trackStd,
	}
	ms := make([]metric, len(endToEndMetrics))
	for i, d := range endToEndMetrics {
		ms[i] = metric{d.name, d.unit, values[d.name]}
	}
	return ms
}

// memSysMB is the Go runtime's total mapped memory, MemStats.Sys.
func memSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// peakRSSMB is the process's peak resident set (VmHWM), the memory a user
// of the process sees. MemStats.Sys would be the portable figure, but the
// heap maps memory 4 MB at a time, so on these 10–20 MB processes Sys
// jumps by a quarter depending on whether a collection finished just
// before or just after a chunk boundary; resident pages do not. Where
// /proc is missing it falls back to Sys.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return memSysMB()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return memSysMB()
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}
