package sim

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/fault"
)

// togglingController commands, every period, a rate other than the one in
// force: 0.03 for a task running at 0.02, 0.02 for any other. With healthy
// actuation every command therefore moves the rate.
type togglingController struct{}

func (togglingController) Name() string         { return "TOGGLE" }
func (togglingController) Reset()               {}
func (togglingController) SetPoints() []float64 { return []float64{0.5} }

func (togglingController) Step(_ int, _, rates []float64) ([]float64, error) {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = 0.02
		if r == 0.02 { //eucon:float-exact the rate in force is a copy of an earlier command
			out[i] = 0.03
		}
	}
	return out, nil
}

// TestDroppedCommandHoldsRate is the oracle for a dropped actuator
// command: at every (period, task) cell the compiled scenario marks
// dropped, the rate applied for the next period is the modulator's
// previous rate, bit for bit; at every other cell the command takes
// effect. One window drops every command for periods [5, 10), and a
// probabilistic drop covers periods 15 on.
func TestDroppedCommandHoldsRate(t *testing.T) {
	s, err := New(Config{
		System:         oneTaskSystem(10, 0.01),
		SamplingPeriod: 1000,
		Periods:        40,
		Controller:     togglingController{},
		Faults: []fault.Spec{
			{Kind: fault.ActuatorDrop, Task: fault.All, Magnitude: 1, Start: 5, Stop: 10},
			{Kind: fault.ActuatorDrop, Task: fault.All, Magnitude: 0.5, Seed: 3, Start: 15},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	dropped, applied := 0, 0
	for k := 0; k+1 < len(tr.Rates); k++ {
		for i, before := range tr.Rates[k] {
			after := tr.Rates[k+1][i]
			if s.faults.Command(k, i).Drop {
				dropped++
				if after != before { //eucon:float-exact a held rate is copied, not recomputed
					t.Errorf("period %d, task %d: command dropped, but the rate moved %g -> %g", k, i, before, after)
				}
				continue
			}
			applied++
			if after == before { //eucon:float-exact every command differs from the rate in force
				t.Errorf("period %d, task %d: command not dropped, but the rate stayed at %g", k, i, before)
			}
		}
	}
	if dropped < 5 || applied < 5 {
		t.Fatalf("%d dropped and %d applied commands: the oracle saw too few of either", dropped, applied)
	}
	t.Logf("%d dropped commands held the rate, %d others took effect", dropped, applied)
}
