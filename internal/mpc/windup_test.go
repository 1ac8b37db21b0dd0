package mpc_test

import (
	"context"
	"testing"

	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/workload"
)

// TestMoveMemoryFollowsStuckActuator is the oracle for the anti-windup
// resync: the move memory a step solves with, Δr(k−1) in the first
// control-penalty block of d, is the move the plant achieved between the
// rates of the last two steps, bit for bit, not the move the controller
// commanded. The inputs are the recorded (u, rates) rows of a SIMPLE run
// under actuator-stuck-t1, where task T1's modulator is frozen for periods
// [120, 180): there the achieved move is 0 while the controller keeps
// commanding T1 moves, so a move memory that kept the command would show.
func TestMoveMemoryFollowsStuckActuator(t *testing.T) {
	sc, ok := fault.Lookup("actuator-stuck-t1")
	if !ok {
		t.Fatal("no actuator-stuck-t1 scenario")
	}
	tr, err := experiments.Run(context.Background(), experiments.Spec{
		Workload: experiments.WorkloadSimple, Faults: sc.Specs, Seed: experiments.DefaultSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, cfg := workload.Simple(), workload.SimpleController()
	rmin, rmax := sys.RateBounds()
	ctrl, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: cfg.PredictionHorizon,
		ControlHorizon:    cfg.ControlHorizon,
		TrefOverTs:        cfg.TrefOverTs,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, d, _, _ := ctrl.NominalProblem()
	base := sys.Processors * cfg.PredictionHorizon // the first control-penalty row
	out := ctrl.NewStepResult()
	commanded := make([]float64, len(rmin))
	stuck := 0 // steps where T1 stood still against a nonzero command
	for k := range tr.Utilization {
		if err := ctrl.StepTo(out, tr.Utilization[k], tr.Rates[k]); err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			for j := range commanded {
				if achieved := tr.Rates[k][j] - tr.Rates[k-1][j]; d[base+j] != achieved { //eucon:float-exact the resync copies the achieved move's bits
					t.Fatalf("step %d, task %d: move memory %g, achieved move %g (commanded %g)", k, j, d[base+j], achieved, commanded[j])
				}
			}
			if tr.Rates[k][0] == tr.Rates[k-1][0] && commanded[0] != 0 { //eucon:float-exact a frozen rate is copied unchanged
				stuck++
			}
		}
		copy(commanded, out.DeltaR)
	}
	if spec := sc.Specs[0]; stuck == 0 || float64(stuck) > spec.Stop-spec.Start {
		t.Fatalf("%d steps with T1 stuck against a command, want 1 to %g: the oracle is vacuous or the window moved", stuck, spec.Stop-spec.Start)
	}
	t.Logf("%d steps held T1's move memory at 0 while it was commanded to move", stuck)
}
