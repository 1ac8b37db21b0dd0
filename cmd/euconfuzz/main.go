// Command euconfuzz runs seeded chaos campaigns against the EUCON
// controller: randomized compositions of fault scenarios and workload
// perturbations, each driven through a full simulation of the canonical
// SIMPLE experiment and checked against the robustness invariant set (no
// panic, finite in-bounds outputs, zero runtime-guard firings, balanced
// object pools, re-convergence after the faults clear).
//
// Usage:
//
//	euconfuzz                       # 25 scenarios, seed 1 (the CI smoke)
//	euconfuzz -n 250 -seed 7        # a bigger storm
//	euconfuzz -v                    # per-scenario degradation counters
//
// On a violation, the offending scenario is shrunk to a 1-minimal clause
// list and printed as a JSON spec runnable verbatim:
//
//	euconsim -faults '<reproducer JSON>'
//
// Exit status: 0 all invariants held, 1 violations found, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/rtsyslab/eucon/internal/chaos"
	"github.com/rtsyslab/eucon/internal/fault"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "campaign seed; a campaign is a pure function of it")
	n := flag.Int("n", chaos.DefaultScenarios, "number of scenarios to generate and check")
	maxClauses := flag.Int("max-clauses", chaos.DefaultMaxClauses, "maximum fault clauses per scenario")
	periods := flag.Int("periods", chaos.DefaultPeriods, "sampling periods per run (canonical: 300)")
	campaignName := flag.String("campaign", "simple", "campaign to run: simple (SIMPLE + centralized EUCON, full clause alphabet), large128 (LARGE-128 + localized DEUCON, crash/feedback-drop clauses, every scenario checked bit-identical at 1 and 8 workers), or partition (real 8-agent TCP fleet under injected partitions and transport loss)")
	verbose := flag.Bool("v", false, "print each scenario's clause list")
	flag.Parse()

	var campaign chaos.Campaign
	switch *campaignName {
	case "simple":
		campaign = chaos.CampaignSimple
	case "large128":
		campaign = chaos.CampaignLarge128
	case "partition":
		campaign = chaos.CampaignPartition
	default:
		fmt.Fprintf(os.Stderr, "euconfuzz: unknown campaign %q (want simple, large128, or partition)\n", *campaignName)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := chaos.Options{Seed: *seed, Scenarios: *n, MaxClauses: *maxClauses, Periods: *periods, Campaign: campaign}
	if *verbose {
		for i := 0; i < *n; i++ {
			scn := chaos.GenerateFor(campaign, *seed, i, *maxClauses, *periods)
			fmt.Printf("scenario %3d: %s\n", i, fault.Format(scn.Specs))
		}
	}
	rep, err := chaos.Run(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfuzz: %v\n", err)
		return 1
	}
	fmt.Printf("chaos campaign: %s seed=%d scenarios=%d periods=%d\n", campaign, rep.Seed, rep.Scenarios, rep.Periods)
	fmt.Printf("containment:    held=%d\n", rep.Held)
	fmt.Printf("degradation:    held-samples=%d skipped-periods=%d\n", rep.HeldSamples, rep.SkippedPeriods)
	fmt.Printf("guard firings:  %d\n", rep.GuardFirings)
	if rep.Ok() {
		fmt.Printf("violations:     0 — all invariants held\n")
		return 0
	}
	fmt.Printf("violations:     %d\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("\nscenario %d violated:\n", v.Scenario.Index)
		for _, p := range v.Problems {
			fmt.Printf("  - %s\n", p)
		}
		fmt.Printf("  original (%d clauses): %s\n", len(v.Scenario.Specs), fault.Format(v.Scenario.Specs))
		if v.Minimal != nil {
			fmt.Printf("  minimal (%d clauses):  %s\n", len(v.Minimal), fault.Format(v.Minimal))
			fmt.Printf("  reproduce: euconsim -faults '%s'\n", v.ReproJSON)
		}
	}
	return 1
}
