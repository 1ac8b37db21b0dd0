package eucon_test

import (
	"context"
	"fmt"

	eucon "github.com/rtsyslab/eucon"
)

// ExampleLiuLaylandBound shows the schedulable utilization bound the
// paper's set points come from (eq. 13).
func ExampleLiuLaylandBound() {
	fmt.Printf("%.4f\n", eucon.LiuLaylandBound(1))
	fmt.Printf("%.4f\n", eucon.LiuLaylandBound(2))
	fmt.Printf("%.4f\n", eucon.LiuLaylandBound(7))
	// Output:
	// 1.0000
	// 0.8284
	// 0.7286
}

// ExampleRunExperiment runs the SIMPLE workload open loop (no controller):
// with deterministic execution times the measured utilization sits at the
// estimated F·r (0.9722 / 0.8389) up to window boundary effects, and is
// exactly reproducible.
func ExampleRunExperiment() {
	tr, err := eucon.RunExperiment(context.Background(), eucon.ExperimentSpec{
		Workload:   eucon.WorkloadSimple,
		Controller: eucon.ControllerNone,
		Periods:    3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	last := tr.Utilization[len(tr.Utilization)-1]
	fmt.Printf("u(P1)=%.4f u(P2)=%.4f\n", last[0], last[1])
	// Output:
	// u(P1)=0.9750 u(P2)=0.8450
}

// ExampleNewController drives one feedback step by hand: the processors
// are under their set points, so the controller raises rates.
func ExampleNewController() {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewController(sys, nil, eucon.SimpleControllerConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rates, err := ctrl.Step(0, []float64{0.5, 0.5}, sys.InitialRates())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	raised := 0
	for i, r := range rates {
		if r > sys.InitialRates()[i] {
			raised++
		}
	}
	fmt.Printf("raised %d of %d task rates\n", raised, len(rates))
	// Output:
	// raised 3 of 3 task rates
}
