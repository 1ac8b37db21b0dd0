// Command euconsim regenerates the tables and figures of the EUCON paper's
// evaluation from the Go reproduction.
//
// Usage:
//
//	euconsim -list
//	euconsim -exp fig4
//	euconsim -exp all
//
// Output is tab-separated data matching the corresponding paper artifact
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/trace"
	"github.com/rtsyslab/eucon/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment ID to run, or \"all\"")
	csvDir := flag.String("csv", "", "for trace experiments: also write <id>-utilization.csv, <id>-rates.csv, <id>-missratio.csv into this directory")
	workers := flag.Int("workers", 0, "worker count for sweep experiments (0 = GOMAXPROCS)")
	digest := flag.Bool("sweep-digest", false, "print JSON digests of the Figure 4/5 sweep series at 1, 2, and 8 workers, then exit (TestGoldenDigests compares these with scripts/golden/ to prove sweep outputs stay bit-identical across worker counts and PRs)")
	faults := flag.String("faults", "", "fault scenario to inject: comma-separated scenario names (see -list-faults), an inline JSON clause array (chaos reproducer format, starts with '['), or @file containing either; runs the canonical 300-period SIMPLE experiment under the scenario and reports robustness and degradation counters")
	listFaults := flag.Bool("list-faults", false, "list the named fault scenarios")
	faultDigest := flag.Bool("fault-digest", false, "with -faults: print JSON digests of a faulted SIMPLE sweep at 1, 2, and 8 workers, including robustness metrics, then exit (TestGoldenDigests compares these with scripts/golden/)")
	workloadName := flag.String("workload", "", "run a named LARGE scaling workload (see -list-workloads) and print JSON trajectory digests: centralized EUCON on the structured solver path plus localized DEUCON at each execution-time factor (TestGoldenDigests compares these with scripts/golden/)")
	listWL := flag.Bool("list-workloads", false, "list the named scaling workloads accepted by -workload")
	flag.Parse()

	// ^C or SIGTERM cancels in-flight simulations at the next sampling
	// boundary instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workers > 0 {
		// Sweeps size their pools from GOMAXPROCS; -workers narrows it.
		runtime.GOMAXPROCS(*workers)
	}

	switch {
	case *digest:
		if err := sweepDigests(ctx, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "euconsim: sweep digest: %v\n", err)
			return 1
		}
		return 0
	case *listWL:
		listWorkloads(os.Stdout)
		return 0
	case *workloadName != "":
		if err := largeDigests(ctx, os.Stdout, *workloadName); err != nil {
			fmt.Fprintf(os.Stderr, "euconsim: workload: %v\n", err)
			return 1
		}
		return 0
	case *listFaults:
		for _, sc := range fault.Scenarios() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.Title)
		}
		return 0
	case *faultDigest:
		if *faults == "" {
			fmt.Fprintf(os.Stderr, "euconsim: -fault-digest requires -faults (known scenarios: %v)\n", fault.Names())
			return 2
		}
		if err := faultDigests(ctx, os.Stdout, *faults); err != nil {
			fmt.Fprintf(os.Stderr, "euconsim: fault digest: %v\n", err)
			return 1
		}
		return 0
	case *faults != "":
		if err := faultReport(ctx, os.Stdout, *faults); err != nil {
			fmt.Fprintf(os.Stderr, "euconsim: faults: %v\n", err)
			return 1
		}
		return 0
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	case *exp == "all":
		for _, e := range experiments.All() {
			fmt.Printf("=== %s: %s\n", e.ID, e.Title)
			if _, err := e.Run(ctx, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "euconsim: %s: %v\n", e.ID, err)
				return 1
			}
			fmt.Println()
		}
		return 0
	case *exp != "":
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "euconsim: unknown experiment %q; available: %v\n", *exp, experiments.IDs())
			return 2
		}
		tr, err := e.Run(ctx, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "euconsim: %s: %v\n", e.ID, err)
			return 1
		}
		if *csvDir != "" {
			if err := exportCSV(*csvDir, e.ID, tr); err != nil {
				fmt.Fprintf(os.Stderr, "euconsim: %v\n", err)
				return 1
			}
		}
		return 0
	default:
		flag.Usage()
		return 2
	}
}

// sweepDigests runs the paper's two sweep grids at 1, 2, and 8 workers and
// prints one JSON line per (grid, worker count) with an FNV-64a digest of
// the full-precision point series. Equal digests across worker counts prove
// the parallel engine's outputs are bit-identical to the serial ones;
// equal digests across PRs prove a perf change did not move the science.
func sweepDigests(ctx context.Context, w io.Writer) error {
	grids := []struct {
		name     string
		workload experiments.WorkloadKind
		etfs     []float64
	}{
		{"fig4", experiments.WorkloadSimple, experiments.Fig4ETFs()},
		{"fig5", experiments.WorkloadMedium, experiments.Fig5ETFs()},
	}
	for _, g := range grids {
		for _, workers := range []int{1, 2, 8} {
			pts, err := experiments.SweepParallel(ctx, experiments.Spec{
				Workload:    g.workload,
				Seed:        experiments.DefaultSeed,
				Parallelism: workers,
			}, g.etfs)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", g.name, workers, err)
			}
			h := fnv.New64a()
			for _, p := range pts {
				fmt.Fprintf(h, "%.17g %.17g %.17g %.17g %v %.17g\n",
					p.ETF, p.P1.Mean, p.P1.StdDev, p.SetPoint, p.Acceptable, p.OpenExpected)
			}
			fmt.Fprintf(w, "{\"sweep\":%q,\"workers\":%d,\"points\":%d,\"digest\":\"%016x\"}\n",
				g.name, workers, len(pts), h.Sum64())
		}
	}
	return nil
}

// parseFaultsArg resolves the -faults argument into a clause list. Three
// forms are accepted: a comma-separated list of named scenarios from the
// registry, an inline JSON clause array (the chaos shrinker's reproducer
// format — recognizable by its leading '['), and @path pointing at a file
// holding either form. The JSON path is what makes euconfuzz reproducers
// runnable verbatim.
func parseFaultsArg(arg string) ([]fault.Spec, error) {
	arg = strings.TrimSpace(arg)
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, fmt.Errorf("read fault spec file: %w", err)
		}
		return parseFaultsArg(string(data))
	}
	if strings.HasPrefix(arg, "[") {
		return fault.UnmarshalSpecs([]byte(arg))
	}
	return fault.Parse(arg)
}

// faultDigests runs a faulted SIMPLE sweep over a small execution-time-factor
// grid at 1, 2, and 8 workers and prints one JSON line per worker count. The
// hash extends the -sweep-digest format with the per-point robustness metrics
// (settling time, max overshoot, per-processor time-in-spec), so it pins both
// the controlled trajectories and the degradation behaviour. The standard
// -sweep-digest format is untouched. TestGoldenDigests compares the
// proc2-crash-recover and kitchen-sink outputs with scripts/golden/.
func faultDigests(ctx context.Context, w io.Writer, list string) error {
	specs, err := parseFaultsArg(list)
	if err != nil {
		return err
	}
	etfs := []float64{0.5, 1, 2}
	for _, workers := range []int{1, 2, 8} {
		pts, err := experiments.SweepParallel(ctx, experiments.Spec{
			Workload:    experiments.WorkloadSimple,
			Seed:        experiments.DefaultSeed,
			Faults:      specs,
			Parallelism: workers,
		}, etfs)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		h := fnv.New64a()
		for _, p := range pts {
			fmt.Fprintf(h, "%.17g %.17g %.17g %.17g %v %.17g %d %.17g",
				p.ETF, p.P1.Mean, p.P1.StdDev, p.SetPoint, p.Acceptable, p.OpenExpected,
				p.Robust.SettlingTime, p.Robust.MaxOvershoot)
			for _, f := range p.Robust.TimeInSpec {
				fmt.Fprintf(h, " %.17g", f)
			}
			fmt.Fprintln(h)
		}
		fmt.Fprintf(w, "{\"faults\":%q,\"workers\":%d,\"points\":%d,\"digest\":\"%016x\"}\n",
			list, workers, len(pts), h.Sum64())
	}
	return nil
}

// faultReport runs the canonical 300-period SIMPLE experiment under the named
// fault scenarios and prints the robustness metrics over the measurement
// window plus the summed degradation counters, so a scenario's end-to-end
// effect can be inspected without writing a test.
func faultReport(ctx context.Context, w io.Writer, list string) error {
	specs, err := parseFaultsArg(list)
	if err != nil {
		return err
	}
	tr, err := experiments.Run(ctx, experiments.Spec{
		Workload: experiments.WorkloadSimple,
		Seed:     experiments.DefaultSeed,
		Faults:   specs,
	})
	if err != nil {
		return err
	}
	setPoints := workload.Simple().DefaultSetPoints()
	rb := experiments.TraceRobustness(tr, setPoints, experiments.WindowStart, experiments.WindowEnd)
	fmt.Fprintf(w, "faults\t%s\n", fault.Format(specs))
	fmt.Fprintf(w, "workload\tSIMPLE\tperiods\t%d\tseed\t%d\n", len(tr.Utilization), experiments.DefaultSeed)
	fmt.Fprintf(w, "settling-time\t%d\nmax-overshoot\t%.4f\n", rb.SettlingTime, rb.MaxOvershoot)
	for p, f := range rb.TimeInSpec {
		fmt.Fprintf(w, "time-in-spec-P%d\t%.4f\n", p+1, f)
	}
	var missing, stale, held, skipped, cmd, down int
	for _, ps := range tr.Periods {
		missing += ps.FeedbackMissing
		stale += ps.FeedbackStale
		held += ps.HeldSamples
		skipped += ps.ControlSkipped
		cmd += ps.RateCmdFaults
		down += ps.ProcsDown
	}
	fmt.Fprintf(w, "feedback-missing\t%d\nfeedback-stale\t%d\nheld-samples\t%d\ncontrol-skipped\t%d\nrate-cmd-faults\t%d\nprocs-down-periods\t%d\ncrash-shed-jobs\t%d\n",
		missing, stale, held, skipped, cmd, down, tr.Stats.CrashShedJobs)
	fmt.Fprintf(w, "solver-held\t%d\n", tr.Stats.ContainmentHeld)
	fmt.Fprintf(w, "guard-firings\t%d\n",
		tr.Stats.GuardRateFirings+tr.Stats.GuardUtilFirings+tr.Stats.GuardPoolFirings)
	return nil
}

// exportCSV writes the three CSV views of the trace experiment id printed
// next to each other in dir.
func exportCSV(dir, id string, tr *sim.Trace) error {
	if tr == nil {
		return fmt.Errorf("%q does not produce a single trace", id)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create CSV directory: %w", err)
	}
	writers := []struct {
		suffix string
		write  func(f *os.File) error
	}{
		{"utilization", func(f *os.File) error { return trace.WriteUtilizationCSV(f, tr) }},
		{"rates", func(f *os.File) error { return trace.WriteRatesCSV(f, tr) }},
		{"missratio", func(f *os.File) error { return trace.WriteMissRatioCSV(f, tr) }},
	}
	for _, w := range writers {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", id, w.suffix))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := w.write(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
