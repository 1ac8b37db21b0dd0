// Avionics: EUCON on a DRE mission-computing workload — the paper's
// flagship domain. A surveillance pipeline's execution times depend on the
// number of tracked targets, which the ground cannot predict; EUCON keeps
// every processor at its schedulable bound so end-to-end deadlines hold,
// trading frame rates instead of dropping the mission.
//
// This mirrors Experiment II (Figures 6–8): execution times step up when
// the target count spikes and back down when it clears, and the controller
// re-converges within tens of sampling periods.
package main

import (
	"context"
	"fmt"
	"os"

	eucon "github.com/rtsyslab/eucon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "avionics: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		sensor  = iota // sensor I/O processor
		fusion         // track fusion processor
		mission        // mission management processor
	)
	sys := &eucon.System{
		Name:       "avionics",
		Processors: 3,
		Tasks: []eucon.Task{
			{
				// Radar track processing: sensor → fusion.
				Name: "radar",
				Subtasks: []eucon.Subtask{
					{Processor: sensor, EstimatedCost: 20},
					{Processor: fusion, EstimatedCost: 30},
				},
				RateMin: 1.0 / 2000, RateMax: 1.0 / 50, InitialRate: 1.0 / 300,
			},
			{
				// Infrared search & track: sensor → fusion → mission.
				Name: "irst",
				Subtasks: []eucon.Subtask{
					{Processor: sensor, EstimatedCost: 25},
					{Processor: fusion, EstimatedCost: 20},
					{Processor: mission, EstimatedCost: 15},
				},
				RateMin: 1.0 / 2000, RateMax: 1.0 / 60, InitialRate: 1.0 / 350,
			},
			{
				// Navigation updates: mission processor only.
				Name:     "nav",
				Subtasks: []eucon.Subtask{{Processor: mission, EstimatedCost: 18}},
				RateMin:  1.0 / 1500, RateMax: 1.0 / 40, InitialRate: 1.0 / 250,
			},
			{
				// Threat evaluation: fusion → mission.
				Name: "threat",
				Subtasks: []eucon.Subtask{
					{Processor: fusion, EstimatedCost: 22},
					{Processor: mission, EstimatedCost: 28},
				},
				RateMin: 1.0 / 2500, RateMax: 1.0 / 70, InitialRate: 1.0 / 400,
			},
			{
				// Cockpit display refresh: sensor processor only.
				Name:     "display",
				Subtasks: []eucon.Subtask{{Processor: sensor, EstimatedCost: 15}},
				RateMin:  1.0 / 1200, RateMax: 1.0 / 35, InitialRate: 1.0 / 200,
			},
		},
	}

	// nil set points → Liu–Layland bounds per processor: holding them
	// guarantees every subtask deadline under RMS. Explicit counts the
	// decisions that no rate bound or utilization constraint touched
	// (rates are bit-identical either way).
	ctrl, err := eucon.NewController(sys, nil, eucon.ControllerConfig{
		PredictionHorizon: 4,
		ControlHorizon:    2,
		TrefOverTs:        4,
		Explicit:          true,
	})
	if err != nil {
		return err
	}

	// Target-count dynamics: quiet cruise, a 12-target engagement at
	// t = 120Ts (execution times +150%), clearing at t = 260Ts.
	etf, err := eucon.StepETF(
		eucon.ETFStep{At: 0, Factor: 0.6},
		eucon.ETFStep{At: 120_000, Factor: 1.5},
		eucon.ETFStep{At: 260_000, Factor: 0.8},
	)
	if err != nil {
		return err
	}

	trace, err := eucon.RunExperiment(context.Background(), eucon.ExperimentSpec{
		System:         sys,
		Custom:         ctrl,
		SamplingPeriod: 1000,
		Periods:        400,
		ETF:            etf,
		Jitter:         0.2,
		Seed:           42,
	})
	if err != nil {
		return err
	}

	names := []string{"sensor ", "fusion ", "mission"}
	fmt.Println("phase                      u(sensor) u(fusion) u(mission)")
	fmt.Printf("%-26s", "set points")
	for p := range names {
		fmt.Printf(" %.4f   ", eucon.LiuLaylandBound(sys.SubtaskCount(p)))
	}
	fmt.Println()
	for _, seg := range []struct {
		name     string
		from, to int
	}{
		{"cruise (etf 0.6)", 60, 120},
		{"engagement (etf 1.5)", 180, 260},
		{"post-engagement (0.8)", 330, 400},
	} {
		fmt.Printf("%-26s", seg.name)
		for p := range names {
			s := eucon.Summarize(eucon.UtilizationSeries(trace, p)[seg.from:seg.to])
			fmt.Printf(" %.4f   ", s.Mean)
		}
		fmt.Println()
	}
	fmt.Println("\nframe rates adapt to load (invocations per 1000 time units):")
	fmt.Println("task     cruise  engagement  post")
	for i := range sys.Tasks {
		r := eucon.RateSeries(trace, i)
		fmt.Printf("%-8s %.2f    %.2f        %.2f\n", sys.Tasks[i].Name,
			1000*eucon.Summarize(r[60:120]).Mean,
			1000*eucon.Summarize(r[180:260]).Mean,
			1000*eucon.Summarize(r[330:400]).Mean)
	}
	fmt.Printf("\nend-to-end deadline misses: %d of %d completions\n",
		trace.Stats.EndToEndDeadlineMisses, trace.Stats.EndToEndCompletions)
	fmt.Printf("interior steps: %d hits, %d solver fallbacks\n",
		trace.Stats.ExplicitHits, trace.Stats.ExplicitMisses)
	return nil
}
