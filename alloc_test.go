package eucon_test

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// TestSteadyStateAllocationFree is the allocation gate of the controllers'
// steady state: once warm, the centralized step in the interior regime
// (with and without explicit mode) and a full localized-DEUCON period
// must not allocate. The simulator's Reset+Run cycle is held to the same
// budget by internal/sim's TestSteadyStateEventLoopAllocFree. euconlint
// proves these paths allocation-free statically (chainRoots in
// internal/analysis); the two tests are the runtime half. Each case warms
// its path and returns one steady-state operation plus a check that the
// measured operations stayed in the regime the case names.
func TestSteadyStateAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (op func() error, inRegime func() bool)
	}{
		{"centralized interior step on MEDIUM", func(t *testing.T) (func() error, func() bool) {
			return mediumInteriorStep(t, false)
		}},
		{"centralized interior step on MEDIUM, explicit law attached", func(t *testing.T) (func() error, func() bool) {
			return mediumInteriorStep(t, true)
		}},
		{"localized DEUCON period on MEDIUM", func(t *testing.T) (func() error, func() bool) {
			return deuconInteriorPeriod(t, workload.Medium())
		}},
		{"localized DEUCON period on LARGE-128", func(t *testing.T) (func() error, func() bool) {
			return deuconInteriorPeriod(t, workload.Large128())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, inRegime := tc.build(t)
			if err := op(); err != nil { // warm pools and lazily sized buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
			if !inRegime() {
				t.Fatal("the measured operations left the steady-state regime; the gate measured something else")
			}
			if allocs != 0 {
				t.Errorf("%.1f allocs/op in steady state, want 0", allocs)
			}
		})
	}
}

// mediumInteriorStep is one centralized step with utilization just under
// the set points and mid-box rates — the steady-state neighborhood where
// the output constraints have slack and no rate bound is tight. (u exactly
// at the set points sits on the boundary and truthfully leaves the
// interior.)
func mediumInteriorStep(t *testing.T, explicit bool) (op func() error, inRegime func() bool) {
	sys := workload.Medium()
	cfg := workload.MediumController()
	cfg.Explicit = explicit
	ctrl, err := core.New(sys, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := ctrl.SetPoints()
	for i := range u {
		u[i] *= 0.98
	}
	rates := make([]float64, len(sys.Tasks))
	for i, tk := range sys.Tasks {
		rates[i] = (tk.RateMin + tk.RateMax) / 2
	}
	want := mpc.SolveOK
	if explicit {
		want = mpc.SolveExplicit
	}
	op = func() error {
		_, err := ctrl.Step(0, u, rates)
		return err
	}
	return op, func() bool {
		_, misses := ctrl.ExplicitCounts()
		return ctrl.LastOutcome() == want && misses == 0
	}
}

// deuconInteriorPeriod is pinnedDeuconPeriod with a regime check that
// every measured local solve was SolveOK. MEDIUM's is the farm-wide
// server's controller; LARGE-128's is the large-deucon one.
func deuconInteriorPeriod(t *testing.T, sys *task.System) (op func() error, inRegime func() bool) {
	op, since := pinnedDeuconPeriod(t, sys)
	return op, func() bool {
		for o, n := range since() {
			if o != int(mpc.SolveOK) && n != 0 {
				return false
			}
		}
		return true
	}
}

// pinnedDeuconPeriod is one full localized-DEUCON period — all
// per-processor solves plus the merge — on sys, with utilization pinned
// just below the set points: exactly at them the constraint slack
// B−u is zero, the interior solve's strict-feasibility guard rejects every
// local, and all of them take the allocating active-set solve. The first
// announcement wave is a transient in which a few locals relax, so three
// warm-up periods carry the controller to its announcement fixed point
// before op is returned; since reports the local solves each ladder rung
// resolved after that.
func pinnedDeuconPeriod(tb testing.TB, sys *task.System) (op func() error, since func() [mpc.SolveExplicitMiss + 1]int) {
	ctrl, err := deucon.New(sys, nil, deucon.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	u := sys.DefaultSetPoints()
	for i := range u {
		u[i] *= 0.98
	}
	rates := sys.InitialRates()
	k := 0
	op = func() error {
		_, err := ctrl.Step(k, u, rates)
		k++
		return err
	}
	for k < 3 {
		if err := op(); err != nil {
			tb.Fatal(err)
		}
	}
	warm := ctrl.OutcomeCounts()
	return op, func() [mpc.SolveExplicitMiss + 1]int {
		counts := ctrl.OutcomeCounts()
		for o := range counts {
			counts[o] -= warm[o]
		}
		return counts
	}
}
