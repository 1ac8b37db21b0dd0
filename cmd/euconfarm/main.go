// Command euconfarm is the scale harness for the distributed runtime: it
// launches one controller Server and a fleet of in-process node agents
// (1000+ by default) over loopback TCP, drives the feedback loop for a
// fixed number of sampling periods while injecting agent crashes and
// rejoins, and reports end-to-end sampling-period latency (p50/p99) and
// frame throughput.
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
	"net"
	"os"
	"sort"
	"sync"
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
	os.Exit(run())
}

func run() int {
	agents := flag.Int("agents", 1000, "number of node agents (one processor each)")
	periods := flag.Int("periods", 200, "sampling periods to run")
	crashes := flag.Int("crashes", 8, "agent crash/rejoin cycles to inject across the run")
	queue := flag.Int("queue", lane.DefaultQueueDepth, "per-peer send-queue depth (frames)")
	codecName := flag.String("codec", "binary", "wire codec: binary, binary2 (delta-compacted rates), or json")
	ctrlName := flag.String("controller", "deucon", "controller: deucon (localized, scales) or eucon (centralized MPC)")
	periodTimeout := flag.Duration("period-timeout", 10*time.Second, "server step deadline per period")
	interval := flag.Duration("interval", 0, "free-running sampling period pace (0 = lockstep, as fast as the lanes allow)")
	faultSpec := flag.String("transport-faults", "", "per-lane transport fault plan, e.g. drop=0.05,delayprob=0.5,delay=20ms,dup=0.01,reorder=0.01,seed=7 (reseeded per agent and direction)")
	skew := flag.Float64("skew", 0, "per-agent clock drift amplitude (free-running only): agent p drifts by a deterministic rate in ±skew")
	partitions := flag.Int("partitions", 0, "partition/heal cycles: each isolates a 1/16 slice of the fleet for ~5 periods, then heals it")
	smoke := flag.Bool("smoke", false, "CI smoke: 64 agents, 50 periods, 2 crash cycles")
	jsonOut := flag.Bool("json", false, "emit one JSON result line")
	flag.Parse()

	if *smoke {
		*agents, *periods, *crashes = 64, 50, 2
	}
	var codec lane.Codec
	switch *codecName {
	case "binary":
		codec = lane.Binary
	case "binary2":
		codec = lane.BinaryV2
	case "json":
		codec = lane.JSONv0
	default:
		fmt.Fprintf(os.Stderr, "euconfarm: unknown codec %q\n", *codecName)
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 1
	}
	srvOpts := []agent.Option{
		agent.WithPeriods(*periods),
		agent.WithCodec(codec),
		agent.WithSendQueue(*queue),
		agent.WithPeriodTimeout(*periodTimeout),
		agent.WithInterval(*interval),
		// Tracing is what the re-convergence assertion reads; only pay for
		// it on degraded runs.
		agent.WithTrace(lossy),
	}
	if !plan.Zero() {
		// Each direction of each agent's lane draws a decorrelated loss
		// pattern from the one template (odd salts outbound, even inbound).
		srvOpts = append(srvOpts, agent.WithTransportFaults(func(p int) lane.Plan {
			return plan.Reseed(int64(2*p + 1))
		}))
	}
	srv, err := agent.NewServer(sys, ctrl, ln, srvOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", err)
		return 1
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *agent.ServerResult
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now() //eucon:wallclock-ok harness wall-time measurement, never feeds control output
	go func() {         //eucon:goroutine-ok joined by the main goroutine's blocking receive on done
		res, err := srv.Run(ctx)
		done <- outcome{res, err}
	}()

	// Latency collector shared by every agent's sink. One mutex is fine:
	// the farm is I/O-bound and single-boxed.
	var latMu sync.Mutex
	lats := make([]time.Duration, 0, (*agents)*(*periods))
	sink := func(_ int, rtt time.Duration) {
		latMu.Lock()
		lats = append(lats, rtt)
		latMu.Unlock()
	}

	// launch starts one agent under its own cancel, so the crash injector
	// can kill exactly the incumbent (context cancel — the lane just dies,
	// no goodbye frame, which the server books as a crash).
	var wg sync.WaitGroup
	var killMu sync.Mutex
	kills := make([]context.CancelFunc, *agents)
	launch := func(p int) {
		actx, acancel := context.WithCancel(ctx)
		killMu.Lock()
		kills[p] = acancel
		killMu.Unlock()
		aopts := []agent.Option{
			agent.WithETF(sim.ConstantETF(1)),
			agent.WithSamplingPeriod(workload.SamplingPeriod),
			agent.WithSeed(int64(p) + 1),
			agent.WithCodec(codec),
			agent.WithSendQueue(*queue),
			agent.WithLatencySink(sink),
			agent.WithInterval(*interval),
			agent.WithNodeName(fmt.Sprintf("farm-P%d", p+1)),
		}
		if !plan.Zero() {
			aopts = append(aopts, agent.WithSendFaults(plan.Reseed(int64(2*p))))
		}
		if *skew != 0 { //eucon:float-exact flag sentinel: exactly zero means no skew injection
			aopts = append(aopts, agent.WithClock(agent.NewSkewedClock(0, driftOf(p, *skew))))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := agent.RunAgent(actx, sys, p, addr, aopts...)
			if err != nil && actx.Err() == nil {
				fmt.Fprintf(os.Stderr, "euconfarm: agent P%d: %v\n", p+1, err)
			}
		}()
	}
	for p := 0; p < *agents; p++ {
		launch(p)
	}

	// Crash injector: spread the cycles across the run. Each cycle kills
	// one agent, waits for the server to step onward without it, and
	// relaunches the same processor — which must rejoin the live loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= *crashes; i++ {
			target := i * *periods / (*crashes + 1)
			if !waitPeriod(ctx, srv, target, *periodTimeout) {
				return
			}
			p := i % *agents
			killMu.Lock()
			kills[p]()
			killMu.Unlock()
			if !waitPeriod(ctx, srv, target+2, *periodTimeout) {
				return
			}
			launch(p) // rejoin
		}
	}()

	// Partition injector: each cycle isolates a contiguous 1/16 slice of
	// the fleet at once — the whole slice goes dark, the controller rides
	// it out on hold-last substitution, and the slice rejoins together (a
	// rejoin storm, which the seeded retry jitter is there to spread out).
	if *partitions > 0 {
		slice := *agents / 16
		if slice < 1 {
			slice = 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= *partitions; i++ {
				target := i * *periods / (*partitions + 1)
				if !waitPeriod(ctx, srv, target, *periodTimeout) {
					return
				}
				lo := (i * slice) % *agents
				killMu.Lock()
				for j := 0; j < slice; j++ {
					kills[(lo+j)%*agents]()
				}
				killMu.Unlock()
				if !waitPeriod(ctx, srv, target+5, *periodTimeout) {
					return
				}
				for j := 0; j < slice; j++ {
					launch((lo + j) % *agents) // heal
				}
			}
		}()
	}

	out := <-done
	elapsed := time.Since(start) //eucon:wallclock-ok harness wall-time measurement, never feeds control output
	cancel()
	wg.Wait()
	if out.err != nil {
		fmt.Fprintf(os.Stderr, "euconfarm: %v\n", out.err)
		return 1
	}
	res := out.res

	latMu.Lock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := percentile(lats, 0.50), percentile(lats, 0.99)
	samples := len(lats)
	latMu.Unlock()
	frames := res.FramesIn + res.FramesOut
	fps := float64(frames) / elapsed.Seconds()

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
	reconvK := -1
	tailErr := 0.0
	if lossy && len(res.Utilization) > 0 {
		reconvK, tailErr = reconvergence(res.Utilization, sys.DefaultSetPoints())
		if tailErr > farmReconvergeTol {
			fmt.Fprintf(os.Stderr, "euconfarm: FAIL — no re-convergence: max tail set-point error %.3f > %.2f\n", tailErr, farmReconvergeTol)
			for _, w := range worstTailProcs(res.Utilization, sys.DefaultSetPoints(), 8) {
				fmt.Fprintf(os.Stderr, "euconfarm:   P%d tail mean %.3f vs set point %.3f (last %.3f)\n",
					w.p+1, w.mean, w.setpoint, w.last)
			}
			return 1
		}
	}

	var qs lane.QueueStats
	for _, st := range res.PeerQueues {
		qs.Sent += st.Sent
		qs.DroppedSamples += st.DroppedSamples
		qs.Coalesced += st.Coalesced
		qs.SupersededRates += st.SupersededRates
	}

	if *jsonOut {
		name := fmt.Sprintf("Farm%d", *agents)
		if lossy {
			name += "Lossy"
		}
		fmt.Printf(`{"bench":%q,"agents":%d,"periods":%d,"wall_ms":%d,"p50_us":%d,"p99_us":%d,"latency_samples":%d,"frames_per_sec":%.0f,"frames_in":%d,"frames_out":%d,"joins":%d,"rejoins":%d,"crashes":%d,"missed":%d,"stale":%d,"dropped_samples":%d,"injected_drops":%d,"superseded_rates":%d,"live_at_end":%d,"reconverged_at":%d,"tail_err":%.3f}`+"\n",
			name, *agents, *periods, elapsed.Milliseconds(), p50.Microseconds(), p99.Microseconds(), samples,
			fps, res.FramesIn, res.FramesOut, res.Joins, res.Rejoins, res.Crashes,
			res.MissedReports, res.StaleSamples, res.DroppedSamples, res.InjectedDrops, qs.SupersededRates,
			res.LiveAtEnd, reconvK, tailErr)
		return 0
	}
	fmt.Printf("euconfarm: %d agents × %d periods on %s in %v (zero controller restarts)\n",
		*agents, *periods, sys.Name, elapsed.Round(time.Millisecond))
	fmt.Printf("  period latency: p50 %v, p99 %v (%d samples)\n", p50.Round(time.Microsecond), p99.Round(time.Microsecond), samples)
	fmt.Printf("  frames: %d in, %d out, %.0f frames/s\n", res.FramesIn, res.FramesOut, fps)
	fmt.Printf("  membership: %d joins, %d rejoins, %d crashes, %d leaves, %d live at end (ledger balanced)\n",
		res.Joins, res.Rejoins, res.Crashes, res.Leaves, res.LiveAtEnd)
	fmt.Printf("  degradation: %d missed reports, %d stale samples, %d dropped samples, %d injected drops\n",
		res.MissedReports, res.StaleSamples, res.DroppedSamples, res.InjectedDrops)
	fmt.Printf("  peer queues: %d sent, %d coalesced, %d superseded rates\n", qs.Sent, qs.Coalesced, qs.SupersededRates)
	if lossy {
		if reconvK >= 0 {
			fmt.Printf("  re-convergence: within set-point tolerance %.2f from period %d on (max tail error %.3f)\n",
				farmReconvergeTol, reconvK, tailErr)
		} else {
			fmt.Printf("  re-convergence: max tail error %.3f within %.2f\n", tailErr, farmReconvergeTol)
		}
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

// reconvergence reports the first period from which every later period's
// max set-point error stays within farmReconvergeTol (-1 if the run ends
// outside it), plus the max per-processor |mean - setpoint| over the final
// farmReconvergeTail periods.
func reconvergence(u [][]float64, setpoints []float64) (from int, tailErr float64) {
	from = -1
	for k := len(u) - 1; k >= 0; k-- {
		worst := 0.0
		for p, v := range u[k] {
			if d := math.Abs(v - setpoints[p]); d > worst {
				worst = d
			}
		}
		if worst > farmReconvergeTol {
			break
		}
		from = k
	}
	tail := farmReconvergeTail
	if tail > len(u) {
		tail = len(u)
	}
	for p := range setpoints {
		sum := 0.0
		for k := len(u) - tail; k < len(u); k++ {
			sum += u[k][p]
		}
		if d := math.Abs(sum/float64(tail) - setpoints[p]); d > tailErr {
			tailErr = d
		}
	}
	return from, tailErr
}

// worstTailProcs ranks processors by tail-mean set-point error — the
// diagnostic printed when the re-convergence gate trips, so a failed run
// says which part of the fleet never came back (a contiguous block points
// at a partition slice, scattered processors at the transport layer).
type tailDiag struct {
	p              int
	mean, setpoint float64
	last           float64
}

func worstTailProcs(u [][]float64, setpoints []float64, top int) []tailDiag {
	tail := farmReconvergeTail
	if tail > len(u) {
		tail = len(u)
	}
	if tail == 0 {
		return nil
	}
	diags := make([]tailDiag, len(setpoints))
	for p := range setpoints {
		sum := 0.0
		for k := len(u) - tail; k < len(u); k++ {
			sum += u[k][p]
		}
		diags[p] = tailDiag{p: p, mean: sum / float64(tail), setpoint: setpoints[p], last: u[len(u)-1][p]}
	}
	sort.Slice(diags, func(i, j int) bool {
		return math.Abs(diags[i].mean-diags[i].setpoint) > math.Abs(diags[j].mean-diags[j].setpoint)
	})
	if top > len(diags) {
		top = len(diags)
	}
	return diags[:top]
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

// waitPeriod polls until the server reaches period k; false on cancel or
// if progress stalls past patience.
func waitPeriod(ctx context.Context, srv *agent.Server, k int, patience time.Duration) bool {
	deadline := time.Now().Add(patience + time.Minute) //eucon:wallclock-ok harness stall guard
	for srv.Period() < k {
		if ctx.Err() != nil || time.Now().After(deadline) { //eucon:wallclock-ok harness stall guard
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// percentile reads the q-quantile from an ascending-sorted slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
