// Command euconfarm is the scale harness for the distributed runtime: it
// runs an agent.Fleet — one controller Server and a fleet of in-process
// node agents (1000+ by default) over loopback TCP — for a fixed number of
// sampling periods while injecting agent crashes and rejoins, and reports
// end-to-end sampling-period latency (p50/p99) and frame throughput.
//
// The workload is the deterministic LARGE family (one processor per
// agent, banded coupling), the controller is localized DEUCON — the
// decentralized scheme whose per-period cost is O(1) in the system size,
// which is what makes a 1000-agent control plane step in milliseconds
// (the centralized MPC's cold active-set solve on an overloaded LARGE
// system takes minutes; select it with -controller eucon to see why the
// farm defaults away from it) — and the membership layer is what keeps
// the run alive through the injected churn: the acceptance gate is zero
// controller restarts.
//
// Beyond crash churn, the harness degrades the network itself:
// -transport-faults injects seeded per-lane frame drops, delays,
// duplicates, and reorders in both directions; -skew gives each agent a
// drifting clock (free-running mode); -partitions isolates whole subsets
// of the fleet and heals them. After a degraded run the harness asserts
// the membership ledger balances, the fleet healed, and — when tracing —
// the loop re-converged to its set points.
//
// Usage:
//
//	euconfarm                      # 1000 agents, 200 periods, 8 crash cycles
//	euconfarm -smoke               # 64 agents, 50 periods, 2 crash cycles
//	euconfarm -json                # machine-readable result line
//	euconfarm -transport-faults drop=0.05,delayprob=0.5,delay=20ms \
//	          -interval 20ms -skew 0.005 -partitions 4   # lossy campaign
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("euconfarm", flag.ContinueOnError)
	agents := fs.Int("agents", 1000, "number of node agents (one processor each)")
	periods := fs.Int("periods", 200, "sampling periods to run")
	crashes := fs.Int("crashes", 8, "agent crash/rejoin cycles to inject across the run")
	queue := fs.Int("queue", lane.DefaultQueueDepth, "per-peer send-queue depth (frames): the server's queues, and the agents' when free-running")
	codecName := fs.String("codec", "binary", "wire codec: binary, binary2, or json")
	ctrlName := fs.String("controller", "deucon", "controller: deucon (localized, scales) or eucon (centralized MPC)")
	periodTimeout := fs.Duration("period-timeout", 10*time.Second, "server step deadline per period")
	interval := fs.Duration("interval", 0, "free-running sampling period pace (0 = lockstep, as fast as the lanes allow)")
	faultSpec := fs.String("transport-faults", "", "per-lane transport fault plan, e.g. drop=0.05,delayprob=0.5,delay=20ms,dup=0.01,reorder=0.01,seed=7 (reseeded per agent and direction)")
	skew := fs.Float64("skew", 0, "per-agent clock drift amplitude (free-running only): agent p drifts by a deterministic rate in ±skew")
	partitions := fs.Int("partitions", 0, "partition/heal cycles: each isolates a 1/16 slice of the fleet for ~5 periods, then heals it")
	smoke := fs.Bool("smoke", false, "CI smoke: 64 agents, 50 periods, 2 crash cycles")
	jsonOut := fs.Bool("json", false, "emit one JSON result line")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *smoke {
		*agents, *periods, *crashes = 64, 50, 2
	}
	codec, err := lane.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 2
	}
	plan, err := fault.ParseTransportPlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 2
	}
	lossy := !plan.Zero() || *skew != 0 || *partitions > 0 //eucon:float-exact flag sentinel: exactly zero means no skew injection

	sys, err := workload.Large(*agents)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 2
	}
	var ctrl sim.Controller
	switch *ctrlName {
	case "deucon":
		ctrl, err = deucon.New(sys, nil, deucon.Config{})
	case "eucon":
		ctrl, err = core.New(sys, nil, workload.LargeController())
	default:
		fmt.Fprintf(os.Stderr, "euconfarm: unknown controller %q\n", *ctrlName)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 1
	}
	fleet := &agent.Fleet{
		Sys:  sys,
		Ctrl: ctrl,
		Server: []agent.Option{
			agent.WithPeriods(*periods),
			agent.WithCodec(codec),
			agent.WithSendQueue(*queue),
			agent.WithPeriodTimeout(*periodTimeout),
			agent.WithInterval(*interval),
			// Tracing is what the re-convergence assertion reads; only pay for
			// it on degraded runs.
			agent.WithTrace(lossy),
		},
		Agent: func(p int) []agent.Option {
			opts := []agent.Option{
				agent.WithETF(sim.ConstantETF(1)),
				agent.WithSamplingPeriod(workload.SamplingPeriod),
				agent.WithSeed(int64(p) + 1),
				agent.WithCodec(codec),
				agent.WithSendQueue(*queue),
				agent.WithInterval(*interval),
				agent.WithNodeName(fmt.Sprintf("farm-P%d", p+1)),
			}
			if *skew != 0 { //eucon:float-exact flag sentinel: exactly zero means no skew injection
				opts = append(opts, agent.WithClock(agent.NewSkewedClock(0, driftOf(p, *skew))))
			}
			return opts
		},
		Outages: outages(*agents, *periods, *crashes, *partitions),
	}
	if !plan.Zero() {
		// Each direction of each agent's lane draws a decorrelated loss
		// pattern from the one template.
		fleet.Faults = func(p int, inbound bool, _ func() int) lane.Plan {
			return plan.ForLane(p, inbound)
		}
	}

	start := time.Now() //eucon:wallclock-ok harness wall-time measurement, never feeds control output
	res, err := fleet.Run(context.Background())
	elapsed := time.Since(start) //eucon:wallclock-ok harness wall-time measurement, never feeds control output
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 1
	}
	p50, p99 := res.Quantile(0.50), res.Quantile(0.99)
	fps := float64(res.FramesIn+res.FramesOut) / elapsed.Seconds()

	if res.Periods != *periods {
		fmt.Fprintf(os.Stderr, "euconfarm: FAIL — server stepped %d of %d periods\n", res.Periods, *periods)
		return 1
	}
	if *crashes > 0 && res.Crashes == 0 {
		fmt.Fprintf(os.Stderr, "euconfarm: FAIL — injected %d crash cycles but the server saw none\n", *crashes)
		return 1
	}
	// The membership ledger must balance under any amount of churn, and
	// every partitioned or crashed agent must have healed by the end.
	if got, want := res.Joins+res.Rejoins, res.Leaves+res.Crashes+res.LiveAtEnd; got != want {
		fmt.Fprintf(os.Stderr, "euconfarm: FAIL — membership ledger unbalanced: %d joins + %d rejoins != %d leaves + %d crashes + %d live\n",
			res.Joins, res.Rejoins, res.Leaves, res.Crashes, res.LiveAtEnd)
		return 1
	}
	if res.LiveAtEnd != *agents {
		fmt.Fprintf(os.Stderr, "euconfarm: FAIL — fleet did not heal: %d of %d agents live at end\n", res.LiveAtEnd, *agents)
		return 1
	}
	// Re-convergence under loss: over the final tail the fleet must sit
	// back at its set points (bound documented in EXPERIMENTS.md,
	// "Lossy-network robustness").
	tailErr := 0.0
	if lossy && len(res.Utilization) > 0 {
		sp := sys.DefaultSetPoints()
		means := agent.TailMeans(res.Utilization, farmReconvergeTail)
		for p := range means {
			tailErr = max(tailErr, math.Abs(means[p]-sp[p]))
		}
		if tailErr > farmReconvergeTol {
			fmt.Fprintf(os.Stderr, "euconfarm: FAIL — no re-convergence: max tail set-point error %.3f > %.2f\n", tailErr, farmReconvergeTol)
			// Name the processors that never came back: a contiguous block
			// points at a partition slice, scattered ones at the transport.
			last := res.Utilization[len(res.Utilization)-1]
			for p := range means {
				if math.Abs(means[p]-sp[p]) > farmReconvergeTol {
					fmt.Fprintf(os.Stderr, "euconfarm:   P%d tail mean %.3f vs set point %.3f (last %.3f)\n", p+1, means[p], sp[p], last[p])
				}
			}
			return 1
		}
	}

	var qs lane.QueueStats
	for _, st := range res.PeerQueues {
		qs.Sent += st.Sent
		qs.Coalesced += st.Coalesced
		qs.SupersededRates += st.SupersededRates
	}

	if *jsonOut {
		name := fmt.Sprintf("Farm%d", *agents)
		if lossy {
			name += "Lossy"
		}
		fmt.Printf(`{"bench":%q,"agents":%d,"periods":%d,"wall_ms":%d,"p50_us":%d,"p99_us":%d,"latency_samples":%d,"frames_per_sec":%.0f,"frames_in":%d,"frames_out":%d,"joins":%d,"rejoins":%d,"crashes":%d,"missed":%d,"stale":%d,"skipped":%d,"dropped_samples":%d,"injected_drops":%d,"superseded_rates":%d,"live_at_end":%d,"tail_err":%.3f}`+"\n",
			name, *agents, *periods, elapsed.Milliseconds(), p50.Microseconds(), p99.Microseconds(), len(res.Latency),
			fps, res.FramesIn, res.FramesOut, res.Joins, res.Rejoins, res.Crashes,
			res.MissedReports, res.StaleSamples, res.SkippedSteps, res.DroppedSamples, res.InjectedDrops, qs.SupersededRates,
			res.LiveAtEnd, tailErr)
		return 0
	}
	fmt.Printf("euconfarm: %d agents × %d periods on %s in %v (zero controller restarts)\n",
		*agents, *periods, sys.Name, elapsed.Round(time.Millisecond))
	fmt.Printf("  period latency: p50 %v, p99 %v (%d samples)\n", p50.Round(time.Microsecond), p99.Round(time.Microsecond), len(res.Latency))
	fmt.Printf("  frames: %d in, %d out, %.0f frames/s\n", res.FramesIn, res.FramesOut, fps)
	fmt.Printf("  membership: %d joins, %d rejoins, %d crashes, %d leaves, %d live at end (ledger balanced)\n",
		res.Joins, res.Rejoins, res.Crashes, res.Leaves, res.LiveAtEnd)
	fmt.Printf("  degradation: %d missed reports, %d stale samples, %d skipped steps, %d dropped samples, %d injected drops\n",
		res.MissedReports, res.StaleSamples, res.SkippedSteps, res.DroppedSamples, res.InjectedDrops)
	fmt.Printf("  peer queues: %d sent, %d coalesced, %d superseded rates\n", qs.Sent, qs.Coalesced, qs.SupersededRates)
	if lossy {
		fmt.Printf("  re-convergence: max tail error %.3f within %.2f\n", tailErr, farmReconvergeTol)
	}
	return 0
}

// farmReconvergeTol is the lossy-run re-convergence gate: over the final
// farmReconvergeTail periods every processor's mean utilization must be
// within this distance of its set point. The bound is looser than the
// simulator campaigns' because the free-running fleet adds real network
// timing and per-agent clock drift on top of the injected loss.
const (
	farmReconvergeTol  = 0.25
	farmReconvergeTail = 20
)

// outages spreads the injected churn across the run: crash cycle i kills
// agent i for two periods; partition cycle i isolates a contiguous 1/16
// slice of the fleet for five, riding on hold-last substitution, and heals
// it at once — a rejoin storm the seeded retry jitter spreads out.
func outages(agents, periods, crashes, partitions int) []agent.Outage {
	var out []agent.Outage
	for i := 1; i <= crashes; i++ {
		at := i * periods / (crashes + 1)
		out = append(out, agent.Outage{Procs: []int{i % agents}, At: at, Rejoin: at + 2})
	}
	slice := max(agents/16, 1)
	for i := 1; i <= partitions; i++ {
		at := i * periods / (partitions + 1)
		procs := make([]int, slice)
		for j := range procs {
			procs[j] = (i*slice + j) % agents
		}
		out = append(out, agent.Outage{Procs: procs, At: at, Rejoin: at + 5})
	}
	return out
}

// driftOf derives agent p's deterministic clock drift rate in ±amp.
func driftOf(p int, amp float64) float64 {
	z := uint64(p+1) * 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	unit := float64(z>>11) / (1 << 53) // [0, 1)
	return amp * (2*unit - 1)
}
