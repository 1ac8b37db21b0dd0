package chaos

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// The partition campaign's fleet: a real controller Server plus one node
// agent per processor of the LARGE-8 workload, free-running over loopback
// TCP so the run length is bounded in wall time regardless of how much of
// the fleet a partition isolates.
const (
	// partitionProcs is the fleet size (workload.Large requires ≥ 6).
	partitionProcs = 8
	// partitionInterval paces the free-running sampling periods.
	partitionInterval = 5 * time.Millisecond
	// partitionMembershipTimeout evicts a silent (partitioned) member.
	partitionMembershipTimeout = 300 * time.Millisecond
	// partitionIOTimeout bounds individual lane operations.
	partitionIOTimeout = 2 * time.Second
	// partitionReconvergeTol is the re-convergence bound over the final
	// reconvergeTail periods; looser than the simulator campaigns because
	// the free-running fleet also carries measurement jitter and real
	// network timing.
	partitionReconvergeTol = 0.2
	// partitionJitter is the agents' measurement noise amplitude.
	partitionJitter = 0.02
)

// checkPartition runs one scenario of the partition campaign on an
// agent.Fleet. Clause mapping: ProcCrash isolates the clause's processor
// from its Start period (the agent is killed — the lane just dies, no
// goodbye) and heals it at Stop (a fresh agent rejoins); FeedbackDrop
// installs seeded probabilistic loss on the processor's lanes — both
// directions, so report loss exercises hold-last substitution and rate
// loss exercises the agents' stale-frame tolerance — active only while
// the server's period is inside the window.
//
// The invariant set: the run completes without a server error (a
// controller restart would surface exactly there), the membership ledger
// balances (joins + rejoins = leaves + crashes + live-at-end), the fleet
// is whole again at the end, every injected partition was booked as a
// crash and a rejoin, the controller never errored, the trace stays finite
// and in bounds, hold-last substitution actually engaged while members
// were isolated, and the fleet re-converges to its set points after the
// network heals.
func checkPartition(ctx context.Context, specs []fault.Spec, opts Options) (problems []string, stats runStats) {
	sys, err := workload.Large(partitionProcs)
	if err != nil {
		return []string{fmt.Sprintf("build workload: %v", err)}, stats
	}
	ctrl, err := deucon.New(sys, nil, deucon.Config{})
	if err != nil {
		return []string{fmt.Sprintf("build controller: %v", err)}, stats
	}
	var rc sim.Controller = ctrl
	if opts.seedBug != nil {
		if bug := plantBug(ctrl, specs, opts.seedBug); bug != nil {
			rc = bug
		}
	}
	var outages []agent.Outage
	minCrashLen := math.Inf(1)
	for _, sp := range specs {
		if sp.Kind == fault.ProcCrash {
			outages = append(outages, agent.Outage{Procs: []int{sp.Proc}, At: int(sp.Start), Rejoin: int(sp.Stop)})
			minCrashLen = math.Min(minCrashLen, sp.Stop-sp.Start)
		}
	}
	fleet := &agent.Fleet{
		Sys:  sys,
		Ctrl: rc,
		Server: []agent.Option{
			agent.WithPeriods(opts.Periods),
			agent.WithInterval(partitionInterval),
			agent.WithMembershipTimeout(partitionMembershipTimeout),
			agent.WithIOTimeout(partitionIOTimeout),
			agent.WithTrace(true),
			agent.WithCodec(lane.BinaryV2),
		},
		Agent: func(p int) []agent.Option {
			// Binary v2 on both ends: the varint rate path runs under the loss.
			return []agent.Option{
				agent.WithETF(sim.ConstantETF(1)),
				agent.WithSamplingPeriod(workload.SamplingPeriod),
				agent.WithInterval(partitionInterval),
				agent.WithJitter(partitionJitter),
				agent.WithSeed(int64(p) + 1),
				agent.WithCodec(lane.BinaryV2),
				agent.WithNodeName(fmt.Sprintf("part-P%d", p+1)),
			}
		},
		Faults: func(p int, inbound bool, period func() int) lane.Plan {
			return buildWindowPlan(specs, p, inbound, period)
		},
		Outages: outages,
	}
	res, err := fleet.Run(ctx)
	var f findings
	if err != nil {
		f.add("fleet run failed (a server error is controller restart territory): %v", err)
		return f, stats
	}
	stats.heldSamples = res.MissedReports
	stats.skipped = res.SkippedSteps

	if res.Periods != opts.Periods {
		f.add("run truncated: server stepped %d of %d periods", res.Periods, opts.Periods)
	}
	if got, want := res.Joins+res.Rejoins, res.Leaves+res.Crashes+res.LiveAtEnd; got != want {
		f.add("membership ledger unbalanced: %d joins + %d rejoins != %d leaves + %d crashes + %d live at end",
			res.Joins, res.Rejoins, res.Leaves, res.Crashes, res.LiveAtEnd)
	}
	if res.LiveAtEnd != partitionProcs {
		f.add("fleet did not heal: %d of %d agents live at end", res.LiveAtEnd, partitionProcs)
	}
	if res.Crashes < len(outages) {
		f.add("injected %d partitions but the server booked only %d crashes", len(outages), res.Crashes)
	}
	if res.Rejoins < len(outages) {
		f.add("injected %d partitions but only %d rejoins were booked", len(outages), res.Rejoins)
	}
	if res.ControllerErrors > 0 {
		f.add("controller returned errors in %d periods", res.ControllerErrors)
	}
	// Hold-last must actually have engaged while a member was isolated: a
	// partition of ≥ 5 periods leaves the server stepping without that
	// member's reports well before eviction or rejoin.
	if len(outages) > 0 && minCrashLen >= 5 && res.MissedReports == 0 {
		f.add("partitions isolated members for ≥ %g periods yet no report was ever substituted", minCrashLen)
	}
	f.addTrace(res.Utilization, res.Rates, sys, partitionReconvergeTol)
	return f, stats
}

// lossWindow is one FeedbackDrop clause compiled for one lane direction.
type lossWindow struct {
	start, stop float64
	plan        fault.TransportPlan
}

// windowPlan gates seeded transport loss by the server's current sampling
// period, so a clause's loss applies only inside its window. The period
// read is inherently racy against the control loop's step — by a period at
// most — which is why the campaign's invariants are counts and bounds
// rather than exact schedules.
type windowPlan struct {
	period  func() int
	windows []lossWindow
}

// FateOf implements lane.Plan. A window's plan only drops, so a message
// is either dropped by the first open window that drops it or delivered
// untouched.
func (w *windowPlan) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	k := float64(w.period())
	for _, win := range w.windows {
		if k >= win.start && (win.stop <= 0 || k < win.stop) {
			if drop, _, _, _ := win.plan.FateOf(n); drop {
				return true, 0, false, false
			}
		}
	}
	return false, 0, false, false
}

// buildWindowPlan compiles the FeedbackDrop clauses targeting processor p
// into a window-gated loss plan for one lane direction (inbound = the
// agent's reports, outbound = the server's rates), or nil when no clause
// applies. The two directions draw decorrelated loss patterns from the
// clause seed, so "drop 20%" does not mean "every lost report also loses
// its rate frame".
func buildWindowPlan(specs []fault.Spec, p int, inbound bool, period func() int) lane.Plan {
	var wins []lossWindow
	for _, sp := range specs {
		if sp.Kind != fault.FeedbackDrop || (sp.Proc != fault.All && sp.Proc != p) {
			continue
		}
		plan := fault.TransportPlan{DropProb: sp.Magnitude, Seed: sp.Seed}
		wins = append(wins, lossWindow{start: sp.Start, stop: sp.Stop, plan: plan.ForLane(p, inbound)})
	}
	if len(wins) == 0 {
		return nil
	}
	return &windowPlan{period: period, windows: wins}
}
