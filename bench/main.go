// Command bench is the repository's closed-loop benchmark: six workloads
// that each drive one trip around the EUCON feedback loop — plant advance,
// report, controller step, rates applied — through the public functions of
// the layers (experiments, sim, core, mpc, qp, mat, empc, deucon, lane,
// agent), and report loop-level end-to-end metrics and, in a traced run, a
// per-layer budget. BENCHMARK.json at the repository root declares it;
// README.md in this directory defines every workload and metric.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh -workload medium-dynamic            # end-to-end metrics
//	bash bench/run.sh -workload medium-dynamic -trace 1   # per-layer metrics
//	bash bench/run.sh -all                                # every workload, untraced then traced
//	bash bench/run.sh -baseline 10                        # rewrite bench/baseline.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	jsonOnly bool
	traceDir string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics in place of the end-to-end ones")
	fs.BoolVar(&opt.smoke, "smoke", false, "run about 1/50 of the work (the go test pass); metrics are not comparable")
	fs.BoolVar(&opt.jsonOnly, "json", false, "print only the result line")
	fs.StringVar(&opt.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	all := fs.Bool("all", false, "run every workload untraced, then traced, one process each, and compare their trace digests")
	baseline := fs.Int("baseline", 0, "run every workload this many times per set, two sets, and rewrite bench/baseline.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	switch {
	case *baseline > 0:
		return runBaseline(*baseline, opt)
	case *all:
		return runAll(opt)
	}
	def := lookupWorkload(opt.workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := measure(def, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	return rep.print(os.Stdout, opt)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// minRounds is the fewest rounds a run makes however short -seconds is, so
// every per-round timing is summarized over at least three.
const minRounds = 3

// smokeDivisor is how much less work a -smoke round does, and smokeRounds
// how many rounds a -smoke pass makes.
const (
	smokeDivisor = 50
	smokeRounds  = 2
)

// measure runs def: whole rounds until opt.seconds of timed phase have
// accumulated, then the correctness check, then — traced — the per-layer
// measurements. A traced process runs every unit of seeded work twice, in
// a traced round and then an untraced one, so the cost of tracing is a
// paired comparison and the two rounds' trace digests must agree.
func measure(def *workloadDef, opt options) (*report, error) {
	rep := &report{def: def, seed: opt.seed, clk: newClock(), size: 1, traceMode: opt.trace}
	if opt.smoke {
		rep.size = smokeDivisor
	}
	if opt.trace {
		rep.layer = make(map[string]float64)
	}
	budget := int64(opt.seconds * 1e9)
	more := func(round int) bool {
		if opt.trace && round%2 == 1 {
			return true // the untraced twin of the traced round before it
		}
		if opt.smoke {
			return round < smokeRounds
		}
		return rep.wall < budget || round < minRounds
	}
	for round := 0; more(round); round++ {
		work, traced := round, false
		if opt.trace {
			work, traced = round/2, round%2 == 0
		}
		t0 := rep.clk.now()
		in, err := def.loop.setup(rep, work, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", round, err)
		}
		rep.setup = append(rep.setup, float64(rep.clk.now()-t0)/1e9)
		err = in.run(rep, work, traced)
		in.close()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	if err := def.loop.verify(rep); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	// A -smoke run is too short to have converged.
	if worst, _ := rep.track.worst(); !opt.smoke && !(worst <= def.trackTol) {
		rep.violate(fmt.Sprintf("tracking error %.4f exceeds the workload's tolerance %.4f", worst, def.trackTol))
	}
	if opt.trace {
		rep.tracedChecks()
		if err := def.loop.layers(rep); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		kernels(rep, 24)
		kernels(rep, 40)
		path, err := rep.tr.write(opt.traceDir, def.name, opt.seed)
		if err != nil {
			return nil, err
		}
		rep.tracePath = path
	}
	return rep, nil
}

// maxTraceOverhead is the largest share of periods_per_s tracing may cost.
const maxTraceOverhead = 0.10

// tracedChecks books the trace's own health metrics and fails the run when
// spans were lost or tracing cost too much.
func (rep *report) tracedChecks() {
	// Round 2j is traced and round 2j+1 repeats its work untraced. The
	// metric is the median pair; the run fails only when every pair shows
	// the cost, because on a shared machine one pair alone can differ by
	// more than the limit with tracing costing nothing.
	costs := make([]float64, len(rep.ppsUntraced))
	for j := range costs {
		costs[j] = 1 - rep.ppsTraced[j]/rep.ppsUntraced[j]
	}
	overhead := median(costs)
	sort.Float64s(costs)
	covered := rep.tr.coverage(rep.tracedWall, rep.def.loop.coverSpans()...)
	rep.layer["trace.overhead_frac"] = overhead
	rep.layer["trace.span_coverage"] = covered
	if covered < minCoverage || covered > 2-minCoverage {
		rep.violate(fmt.Sprintf("spans cover %.4f of the traced wall", covered))
	}
	// A -smoke round is a handful of operations: its timing says nothing.
	if costs[0] > maxTraceOverhead && rep.size == 1 {
		rep.violate(fmt.Sprintf("tracing cost %.3f of periods_per_s (at least %.3f in every traced/untraced pair)", overhead, costs[0]))
	}
}

// correct reports whether every check passed. A broken invariant fails
// every operation.
func (rep *report) correct() bool { return rep.failed == 0 && len(rep.violations) == 0 }

// print writes the human-readable report and the result line, and returns
// the process's exit code.
func (rep *report) print(w io.Writer, opt options) int {
	var ms []metric
	if opt.trace {
		ms = rep.perLayer()
	} else {
		ms = rep.endToEnd()
	}
	failed := rep.failed
	if len(rep.violations) > 0 {
		failed = rep.attempted
	}
	if !opt.jsonOnly {
		fmt.Fprintf(w, "workload %s seed %d trace %v: %s\n", rep.def.name, rep.seed, opt.trace, rep.def.why)
		fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		fmt.Fprintf(w, "op: %s; closed loop, %d rounds, %d periods, %.3f s timed\n", rep.def.op, len(rep.pps), rep.periods, float64(rep.wall)/1e9)
		perRound := rep.opCount / len(rep.pps)
		fmt.Fprintf(w, "op_p50_us and op_tail_us (p%g) are taken per round of %d samples, %d in all; timings report the fast-side quartile over rounds\n",
			100*tailPercentile(perRound, rep.def.tailPct), perRound, rep.opCount)
		for _, r := range []struct {
			name string
			v    []float64
		}{{"setup_s", rep.setup}, {"periods_per_s", rep.pps}, {"op_p50_us", rep.opP50}, {"op_tail_us", rep.opTail}} {
			s := append([]float64(nil), r.v...)
			sort.Float64s(s)
			fmt.Fprintf(w, "  %-14s over rounds: min %.6g  q1 %.6g  median %.6g  q3 %.6g  max %.6g\n",
				r.name, s[0], percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.75), s[len(s)-1])
		}
		for _, m := range ms {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		}
		worstErr, worstStd := rep.track.worst()
		fmt.Fprintf(w, "%-34s %16.6g MB\n", "mem_sys_mb", memSysMB())
		fmt.Fprintf(w, "%-34s %16.6g ratio\n", "fail_frac", float64(failed)/float64(rep.attempted))
		fmt.Fprintf(w, "%-34s %16.6g ratio (%d of %d end-to-end instances)\n", "miss_ratio", rep.missRatio(), rep.misses, rep.completions)
		fmt.Fprintf(w, "%-34s %16.6g utilization (worst processor, worst run; tolerance %g)\n", "track_err_worst", worstErr, rep.def.trackTol)
		fmt.Fprintf(w, "%-34s %16.6g utilization\n", "track_std_worst", worstStd)
		fmt.Fprintf(w, "trace_digest %016x%s\n", rep.digests[0], rep.digestNote())
		if rep.tracePath != "" {
			fmt.Fprintf(w, "spans: %d recorded, written to %s\n", len(rep.tr.spans), rep.tracePath)
		}
		for _, v := range rep.violations {
			fmt.Fprintf(w, "VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintln(w, resultLine(rep.correct(), rep.attempted, failed, ms))
	if !rep.correct() {
		return 1
	}
	return 0
}

func (rep *report) missRatio() float64 {
	if rep.completions == 0 {
		return 0
	}
	return float64(rep.misses) / float64(rep.completions)
}

// digestNote compares round 0's digest with the one pinned in
// baseline.json for this workload and seed. A mismatch is reported loudly
// but is not a failure: a numerics change is judged on tracking quality.
func (rep *report) digestNote() string {
	if rep.size != 1 {
		return ""
	}
	pin, ok := pinnedDigest(rep.def.name, rep.seed)
	switch {
	case !ok:
		return " (no pin for this seed)"
	case pin == fmt.Sprintf("%016x", rep.digests[0]):
		return " (matches baseline.json)"
	default:
		return " digest_changed (baseline.json pins " + pin + ")"
	}
}

// resultLine renders the one-line JSON result. Values are printed with all
// their digits.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q: {"value": %v, "unit": %q}`, m.name, v, m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// perLayer returns every declared per-layer metric in declaration order; a
// layer that is not on this workload's loop reports 0.
func (rep *report) perLayer() []metric {
	rep.layer["loop.miss_ratio"] = rep.missRatio()
	rep.layer["loop.track_err_worst"], rep.layer["loop.track_std_worst"] = rep.track.worst()
	ms := make([]metric, 0, len(layerMetrics))
	for _, d := range layerMetrics {
		ms = append(ms, metric{d.name, d.unit, rep.layer[d.name]})
	}
	var unknown []string
	for name := range rep.layer {
		if _, ok := layerIndex[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		rep.violate("undeclared per-layer metrics: " + strings.Join(unknown, ", "))
	}
	return ms
}
