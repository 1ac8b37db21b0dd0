package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/stability"
	"github.com/rtsyslab/eucon/internal/workload"
)

// claim is one row of TestPaperClaims: a closed-loop property the paper
// states, checked on the data a registry entry prints.
type claim struct {
	// artifact is the registry ID whose data function the row evaluates.
	artifact string
	// section is where the paper states the claim.
	section string
	// name states the predicate.
	name string
	// tol is the predicate's tolerance.
	tol float64
	// status is "holds", or "deviation n" (EXPERIMENTS.md, "Documented
	// deviations") with the measured value pinned to tol.
	status string
	check  func(t *testing.T, tol float64)
}

// memo evaluates a registry data function once per test binary, so rows
// sharing an artifact share its run.
func memo[T any](data func(context.Context) (T, error)) func(*testing.T) T {
	var (
		once sync.Once
		v    T
		err  error
	)
	return func(t *testing.T) T {
		t.Helper()
		once.Do(func() { v, err = data(context.Background()) })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

type deuconData struct {
	tr   *sim.Trace
	ctrl *deucon.Controller
}

var (
	fig3a     = memo(fig3aTrace)
	fig3b     = memo(fig3bTrace)
	fig4      = memo(fig4Points)
	fig5      = memo(fig5Points)
	fig6      = memo(fig6Trace)
	fig7      = memo(fig7Trace)
	ablated   = memo(ablations)
	deuconOut = memo(func(ctx context.Context) (deuconData, error) {
		tr, ctrl, err := deuconRun(ctx)
		return deuconData{tr, ctrl}, err
	})
	missRatio = memo(func(ctx context.Context) ([2]*sim.Trace, error) {
		e, o, err := missRatioRuns(ctx)
		return [2]*sim.Trace{e, o}, err
	})
	simpleGain = memo(func(context.Context) (float64, error) {
		return criticalGain(workload.Simple(), workload.SimpleController())
	})
	mediumGain = memo(func(context.Context) (float64, error) {
		return criticalGain(workload.Medium(), workload.MediumController())
	})
	region = memo(func(context.Context) ([]stability.RegionPoint, error) { return stabilityRegion() })
)

// point returns the sweep point at etf.
func point(t *testing.T, pts []SweepPoint, etf float64) SweepPoint {
	t.Helper()
	for _, p := range pts {
		if p.ETF == etf {
			return p
		}
	}
	t.Fatalf("no sweep point at etf %v", etf)
	return SweepPoint{}
}

// ablationValue returns the measured value of one ext-ablations variant.
func ablationValue(t *testing.T, study, variant string) float64 {
	t.Helper()
	for _, a := range ablated(t) {
		if a.study == study && a.variant == variant {
			return a.value
		}
	}
	t.Fatalf("no ablation %s/%s", study, variant)
	return 0
}

// pinned fails unless got is within tol of the recorded deviation value.
func pinned(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, pinned at %.4f ± %g: the deviation moved; re-measure and update EXPERIMENTS.md", what, got, want, tol)
	}
}

// acceptableUpTo checks the paper's acceptability criterion (mean within
// tol of the set point, σ < 0.05) at every sweep point with etf ≤ maxETF.
func acceptableUpTo(t *testing.T, pts []SweepPoint, maxETF, tol float64) {
	t.Helper()
	for _, p := range pts {
		if p.ETF > maxETF {
			continue
		}
		if math.Abs(p.P1.Mean-p.SetPoint) > tol || p.P1.StdDev >= metrics.AcceptableStdDev {
			t.Errorf("etf %.2f: mean %.4f (B = %.4f, |Δ| ≤ %g), σ %.4f (< %g)",
				p.ETF, p.P1.Mean, p.SetPoint, tol, p.P1.StdDev, metrics.AcceptableStdDev)
		}
	}
}

// windowMean is processor p's mean utilization over periods [from, to).
func windowMean(tr *sim.Trace, p, from, to int) float64 {
	return metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), from, to))
}

// segmentMeans is u₁'s mean over the tail of each Experiment II segment
// (etf 0.5, 0.9, 0.33).
func segmentMeans(tr *sim.Trace, p int, tails [3][2]int) [3]float64 {
	var m [3]float64
	for i, w := range tails {
		m[i] = windowMean(tr, p, w[0], w[1])
	}
	return m
}

// paperClaims states each claim of the paper's evaluation as a checked
// closed-loop property of the data euconsim prints. A row either holds or
// is a documented deviation whose measured value is pinned.
func paperClaims() []claim {
	simpleB := workload.Simple().DefaultSetPoints()
	mediumB := workload.Medium().DefaultSetPoints()
	return []claim{
		{"fig3a", "§7.2", "SIMPLE at etf 0.5: both processors acceptable over [100,300)Ts", metrics.AcceptableMeanError, "holds",
			func(t *testing.T, tol float64) {
				tr := fig3a(t)
				for p, b := range simpleB {
					s := metrics.Summarize(metrics.Window(metrics.Column(tr.Utilization, p), WindowStart, WindowEnd))
					if math.Abs(s.Mean-b) > tol || s.StdDev >= metrics.AcceptableStdDev {
						t.Errorf("P%d: %v against B = %.4f", p+1, s, b)
					}
				}
			}},
		{"fig3a", "§7.2", "SIMPLE at etf 0.5 starts underutilized (u₁ ≤ 0.5) and is near B after 60 Ts", 0.075, "holds",
			func(t *testing.T, tol float64) {
				tr := fig3a(t)
				if u := tr.Utilization[0][0]; u > 0.5 {
					t.Errorf("first u₁ = %.4f, want ≤ 0.5", u)
				}
				if u := tr.Utilization[59][0]; math.Abs(u-simpleB[0]) > tol {
					t.Errorf("u₁ at 60 Ts = %.4f, want within %g of %.4f", u, tol, simpleB[0])
				}
			}},
		{"fig3b", "§7.2", "SIMPLE at etf 7 oscillates: σ(u₁) ≥ 0.05 over [100,300)Ts", metrics.AcceptableStdDev, "holds",
			func(t *testing.T, tol float64) {
				s := metrics.Summarize(metrics.Window(metrics.Column(fig3b(t).Utilization, 0), WindowStart, WindowEnd))
				if s.StdDev < tol {
					t.Errorf("σ = %.4f, want ≥ %g", s.StdDev, tol)
				}
			}},
		{"stability", "§6.2", "SIMPLE's critical gain lies in the paper's empirical boundary [6.5, 7]", 0, "holds",
			func(t *testing.T, _ float64) {
				if g := simpleGain(t); g < 6.5 || g > 7 {
					t.Errorf("g* = %.4f", g)
				}
			}},
		{"stability", "§6.2", "SIMPLE's critical gain g* = 6.5091 against the hand analysis's 5.95", 5e-5, "deviation 3",
			func(t *testing.T, tol float64) { pinned(t, "g*", simpleGain(t), 6.5091, tol) }},
		{"ext-stability-medium", "§7.1 Table 2", "MEDIUM's longer horizons widen stability: g*(MEDIUM) > g*(SIMPLE)", 0, "holds",
			func(t *testing.T, _ float64) {
				if m, s := mediumGain(t), simpleGain(t); m <= s {
					t.Errorf("g*(MEDIUM) = %.4f ≤ g*(SIMPLE) = %.4f", m, s)
				}
			}},
		{"ext-stability-region", "§6.2", "the region's diagonal (g, g) is stable exactly below g*", 0, "holds",
			func(t *testing.T, _ float64) {
				g := simpleGain(t)
				for _, p := range region(t) {
					if p.G1 == p.G2 && p.Stable != (p.G1 < g) {
						t.Errorf("(%.3f, %.3f): stable = %v, g* = %.4f", p.G1, p.G2, p.Stable, g)
					}
				}
			}},
		{"fig4", "§7.2", "EUCON acceptable for etf ∈ [0.5, 2] on SIMPLE", metrics.AcceptableMeanError, "holds",
			func(t *testing.T, tol float64) {
				var pts []SweepPoint
				for _, p := range fig4(t) {
					if p.ETF >= 0.5 {
						pts = append(pts, p)
					}
				}
				acceptableUpTo(t, pts, 2, tol)
			}},
		{"fig4", "§7.2", "σ(u₁) crosses 0.05 between etf 2 and 3 (paper: between 3 and 4)", 5e-5, "deviation 7",
			func(t *testing.T, tol float64) {
				s2, s3 := point(t, fig4(t), 2).P1.StdDev, point(t, fig4(t), 3).P1.StdDev
				if !(s2 < metrics.AcceptableStdDev && s3 >= metrics.AcceptableStdDev) {
					t.Errorf("σ(2) = %.4f, σ(3) = %.4f: the crossing moved", s2, s3)
				}
				pinned(t, "σ at etf 2", s2, 0.0347, tol)
				pinned(t, "σ at etf 3", s3, 0.0856, tol)
			}},
		{"fig4", "§7.2", "unacceptable past the stability bound (etf ≥ 6.5), oscillation growing: σ(8) > σ(2)", 0, "holds",
			func(t *testing.T, _ float64) {
				pts := fig4(t)
				for _, p := range pts {
					if p.ETF >= 6.5 && p.Acceptable {
						t.Errorf("etf %.2f acceptable: %v", p.ETF, p.P1)
					}
				}
				if s8, s2 := point(t, pts, 8).P1.StdDev, point(t, pts, 2).P1.StdDev; s8 <= s2 {
					t.Errorf("σ(8) = %.4f ≤ σ(2) = %.4f", s8, s2)
				}
			}},
		{"fig4", "§7.2", "u₁ = 0.4000 at etf 0.2: Table 1's R_max caps u₁ at 0.2·(35/35 + 35/35)", 5e-5, "deviation 2",
			func(t *testing.T, tol float64) {
				pinned(t, "mean u₁ at etf 0.2", point(t, fig4(t), 0.2).P1.Mean, 0.4, tol)
			}},
		{"fig5", "§7.1", "EUCON acceptable for etf ∈ [0.1, 1] on MEDIUM", metrics.AcceptableMeanError, "holds",
			func(t *testing.T, tol float64) { acceptableUpTo(t, fig5(t), 1, tol) }},
		{"fig5", "§7.2", "EUCON's mean stays near B₁ for every etf ∈ [0.1, 6]", 0.05, "holds",
			func(t *testing.T, tol float64) {
				for _, p := range fig5(t) {
					if math.Abs(p.P1.Mean-p.SetPoint) > tol {
						t.Errorf("etf %.2f: mean %.4f, B₁ = %.4f", p.ETF, p.P1.Mean, p.SetPoint)
					}
				}
			}},
		{"fig5", "§7.2", "OPEN's u₁ = min(1, etf·B₁); 0.073 at etf 0.1", 1e-3, "holds",
			func(t *testing.T, tol float64) {
				for _, p := range fig5(t) {
					if want := math.Min(1, p.ETF*p.SetPoint); math.Abs(p.OpenExpected-want) > tol {
						t.Errorf("etf %.2f: OPEN %.4f, want %.4f", p.ETF, p.OpenExpected, want)
					}
				}
				if o := point(t, fig5(t), 0.1).OpenExpected; math.Abs(o-0.073) > tol {
					t.Errorf("OPEN at etf 0.1 = %.4f, paper: 0.073", o)
				}
			}},
		{"fig6", "§7.3", "OPEN's u₁ follows the load: each segment mean ≈ etf·B₁", 0.05, "holds",
			func(t *testing.T, tol float64) {
				m := segmentMeans(fig6(t), 0, [3][2]int{{50, 100}, {150, 200}, {250, 300}})
				for i, etf := range []float64{0.5, 0.9, 0.33} {
					if math.Abs(m[i]-etf*mediumB[0]) > tol {
						t.Errorf("etf %v: mean %.4f, want %.4f", etf, m[i], etf*mediumB[0])
					}
				}
				if !(m[1] > m[0] && m[0] > m[2]) {
					t.Errorf("segment means %.4f, %.4f, %.4f do not follow the load", m[0], m[1], m[2])
				}
			}},
		{"fig7", "§7.3", "EUCON re-converges: every segment tail within 0.03 of B on every processor", 0.03, "holds",
			func(t *testing.T, tol float64) {
				for p, b := range mediumB {
					for i, m := range segmentMeans(fig7(t), p, [3][2]int{{60, 100}, {160, 200}, {260, 300}}) {
						if math.Abs(m-b) > tol {
							t.Errorf("P%d segment %d: mean %.4f, B = %.4f", p+1, i+1, m, b)
						}
					}
				}
			}},
		{"fig7", "§7.3", "settling ≤ 20 Ts after the +80% step on every processor", 20, "holds",
			func(t *testing.T, tol float64) {
				for p, st := range stepSettling(fig7(t), 100) {
					if st < 0 || float64(st) > tol {
						t.Errorf("P%d settles in %d Ts", p+1, st)
					}
				}
			}},
		{"fig7", "§7.3", "recovery after the −67% step is slower than after the +80% step on every processor", 0, "holds",
			func(t *testing.T, _ float64) {
				up := stepSettling(fig7(t), 100)
				measured := []int{29, 29, 30, 28}
				for p, st := range stepSettling(fig7(t), 200) {
					if st <= up[p] || st != measured[p] {
						t.Errorf("P%d settles in %d Ts after the −67%% step (measured %d) and %d Ts after the +80%% step",
							p+1, st, measured[p], up[p])
					}
				}
			}},
		{"fig8", "§7.3", "rates fall after the +80% step and rise after the −67% step", 0, "holds",
			func(t *testing.T, _ float64) {
				tr := fig7(t)
				avg := func(from, to int) float64 {
					var all []float64
					for _, r := range tr.Rates[from:to] {
						all = append(all, r...)
					}
					return metrics.Mean(all)
				}
				r1, r2, r3 := avg(60, 100), avg(160, 200), avg(260, 300)
				if !(r2 < r1 && r3 > r2) {
					t.Errorf("mean rates %.6f → %.6f → %.6f", r1, r2, r3)
				}
			}},
		{"fig8", "§7.3", "T1's rate ratio across the +80% step within 0.02 of 0.5/0.9", 0.02, "holds",
			func(t *testing.T, tol float64) {
				r := metrics.Column(fig7(t).Rates, 0)
				if ratio := metrics.Mean(r[160:200]) / metrics.Mean(r[60:100]); math.Abs(ratio-0.5/0.9) > tol {
					t.Errorf("ratio %.4f, want %.4f", ratio, 0.5/0.9)
				}
			}},
		{"ext-deucon", "§8", "DEUCON's 4 local controllers hold every [160,200)Ts mean within 0.06 of B", 0.06, "holds",
			func(t *testing.T, tol float64) {
				d := deuconOut(t)
				if n := d.ctrl.LocalControllers(); n != 4 {
					t.Errorf("%d local controllers", n)
				}
				for p, b := range mediumB {
					if m := windowMean(d.tr, p, 160, 200); math.Abs(m-b) > tol {
						t.Errorf("P%d: mean %.4f, B = %.4f", p+1, m, b)
					}
				}
			}},
		{"ext-missratio", "§3.2", "at etf 1.5 OPEN misses deadlines over [100,300)Ts and EUCON misses fewer", 0, "holds",
			func(t *testing.T, _ float64) {
				runs := missRatio(t)
				e, o := windowMisses(runs[0]), windowMisses(runs[1])
				if o == 0 || e >= o {
					t.Errorf("subtask misses: EUCON %d, OPEN %d", e, o)
				}
			}},
		{"ext-ablations", "§7.1 Table 2", "longer horizons oscillate less at etf 2: σ(P=4,M=2) < σ(P=2,M=1)", 0, "holds",
			func(t *testing.T, _ float64) {
				if l, s := ablationValue(t, "horizons", "P=4,M=2"), ablationValue(t, "horizons", "P=2,M=1"); l >= s {
					t.Errorf("σ %.4f (long) ≥ %.4f (short)", l, s)
				}
			}},
		{"ext-ablations", "§6.3", "a slower reference oscillates less: σ falls as Tref/Ts grows 2 → 4 → 8", 0, "holds",
			func(t *testing.T, _ float64) {
				s2, s4, s8 := ablationValue(t, "tref", "Tref/Ts=2"), ablationValue(t, "tref", "Tref/Ts=4"), ablationValue(t, "tref", "Tref/Ts=8")
				if !(s2 > s4 && s4 > s8) {
					t.Errorf("σ %.4f, %.4f, %.4f", s2, s4, s8)
				}
			}},
		{"ext-ablations", "§5", "the u ≤ B output constraints reduce overshoot at etf 1", 0, "holds",
			func(t *testing.T, _ float64) {
				if on, off := ablationValue(t, "output-constraints", "on"), ablationValue(t, "output-constraints", "off"); on >= off {
					t.Errorf("overshoot %.4f with constraints ≥ %.4f without", on, off)
				}
			}},
		{"ext-ablations", "§6.3", "pessimistic estimates oscillate less: σ(etf 0.5) < σ(etf 3)", 0, "holds",
			func(t *testing.T, _ float64) {
				if p, o := ablationValue(t, "estimates", "pessimistic"), ablationValue(t, "estimates", "optimistic"); p >= o {
					t.Errorf("σ %.4f (pessimistic) ≥ %.4f (optimistic)", p, o)
				}
			}},
		{"ext-ablations", "§2", "decoupled PID leaves > 0.1 steady error on the coupling trap where EUCON stays within 0.02", metrics.AcceptableMeanError, "holds",
			func(t *testing.T, tol float64) {
				if pid, mpc := ablationValue(t, "pid-coupling", "PID"), ablationValue(t, "pid-coupling", "EUCON"); pid <= 0.1 || mpc > tol {
					t.Errorf("|mean − B₁|: PID %.4f, EUCON %.4f", pid, mpc)
				}
			}},
		{"ext-ablations", "§8", "EUCON and DEUCON both hold MEDIUM within 0.02 of B at etf 1", metrics.AcceptableMeanError, "holds",
			func(t *testing.T, tol float64) {
				for _, kind := range []string{"EUCON", "DEUCON"} {
					if e := ablationValue(t, "deucon", kind); e > tol {
						t.Errorf("%s worst |mean − B| = %.4f", kind, e)
					}
				}
			}},
		{"ext-ablations", "§7.1", "DEUCON keeps LARGE-128 acceptable at 98, 2 and 0 of 128 processors at etf 0.5, 1 and 2", 0, "deviation 8",
			func(t *testing.T, tol float64) {
				for i, v := range []string{"LARGE-128 etf=0.5", "LARGE-128 etf=1", "LARGE-128 etf=2"} {
					pinned(t, "acceptable processors at "+v, ablationValue(t, "scale", v), []float64{98, 2, 0}[i], tol)
				}
			}},
	}
}

// run checks the row in its own subtest.
func (c claim) run(t *testing.T) {
	t.Helper()
	t.Run(fmt.Sprintf("%s (%s)", c.name, c.section), func(t *testing.T) {
		c.check(t, c.tol)
		if t.Failed() {
			t.Logf("artifact %s, status %s, tolerance %g; print it with go run ./cmd/euconsim -exp %s", c.artifact, c.status, c.tol, c.artifact)
		}
	})
}

// runClaims runs the rows whose names start with one of prefixes, and
// fails if a prefix names no row.
func runClaims(t *testing.T, prefixes ...string) {
	t.Helper()
	for _, prefix := range prefixes {
		found := false
		for _, c := range paperClaims() {
			if strings.HasPrefix(c.name, prefix) {
				c.run(t)
				found = true
			}
		}
		if !found {
			t.Errorf("no claim named %q", prefix)
		}
	}
}

// TestPaperClaims checks every row, so a change that breaks a claim, or
// moves a deviation, fails here by name.
func TestPaperClaims(t *testing.T) {
	for _, c := range paperClaims() {
		c.run(t)
	}
}

// The figure tests below predate TestPaperClaims; each runs the rows that
// now state what it checked.

func TestFig3bInstability(t *testing.T) {
	runClaims(t, "SIMPLE at etf 7 oscillates")
}

func TestFig4AcceptableRange(t *testing.T) {
	runClaims(t, "EUCON acceptable for etf ∈ [0.5, 2] on SIMPLE", "unacceptable past the stability bound")
}

func TestFig4ActuatorSaturationAtLowETF(t *testing.T) {
	runClaims(t, "u₁ = 0.4000 at etf 0.2")
}

func TestFig5MediumTracksSetPointWhereOpenFails(t *testing.T) {
	runClaims(t, "EUCON acceptable for etf ∈ [0.1, 1] on MEDIUM", "OPEN's u₁ = min(1, etf·B₁)")
}

func TestFig6OpenFluctuatesWithLoad(t *testing.T) {
	runClaims(t, "OPEN's u₁ follows the load")
}
