// Command nodeagent is the per-processor agent of the EUCON architecture:
// it hosts a utilization monitor and a rate modulator for one processor,
// connected to the central controller (cmd/euconctl) through a TCP feedback
// lane. The agent carries a synthetic plant whose utilization follows the
// processor's hosted subtasks, current rates, and an execution-time factor.
//
// See cmd/euconctl for a complete invocation example.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7070", "controller address")
	name := flag.String("workload", "simple", "workload: simple or medium")
	proc := flag.Int("proc", 0, "0-based processor index this agent hosts")
	etf := flag.Float64("etf", 1, "execution-time factor (actual/estimated execution times)")
	jitter := flag.Float64("jitter", 0, "uniform relative noise on measured utilization, in [0, 1)")
	interval := flag.Duration("interval", 50*time.Millisecond, "real-time duration of one sampling period (0 = lockstep)")
	seed := flag.Int64("seed", defaultSeed, "noise seed, mixed with -proc so every node of a fleet draws its own noise")
	codec := flag.String("codec", "binary", "wire codec: binary, binary2, or json (the same on euconctl and every nodeagent)")
	queue := flag.Int("queue", lane.DefaultQueueDepth, "outbound send-queue depth (frames); free-running agents only (-interval > 0), a lockstep agent writes its reports inline")
	faultSpec := flag.String("transport-faults", "", "inject transport faults on outbound reports, e.g. drop=0.05,delay=10ms,delayprob=0.5,seed=7 (reseeded per processor)")
	drift := flag.Float64("drift", 0, "clock rate error for free-running pacing: +0.01 samples 1% fast, -0.01 1% slow")
	skew := flag.Duration("skew", 0, "constant clock offset for free-running pacing")
	flag.Parse()

	var sys *task.System
	switch *name {
	case "simple":
		sys = workload.Simple()
	case "medium":
		sys = workload.Medium()
	default:
		fmt.Fprintf(os.Stderr, "nodeagent: unknown workload %q\n", *name)
		return 2
	}
	wire, err := lane.ParseCodec(*codec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodeagent: %v\n", err)
		return 2
	}
	plan, err := fault.ParseTransportPlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodeagent: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []agent.Option{
		agent.WithNodeName(fmt.Sprintf("%s-P%d", sys.Name, *proc+1)),
		agent.WithETF(sim.ConstantETF(*etf)),
		agent.WithSamplingPeriod(workload.SamplingPeriod),
		agent.WithJitter(*jitter),
		agent.WithSeed(agent.NodeSeed(*seed, *proc)),
		agent.WithInterval(*interval),
		agent.WithCodec(wire),
		agent.WithSendQueue(*queue),
	}
	if !plan.Zero() {
		opts = append(opts, agent.WithTransportFaults(func(p int) lane.Plan {
			return plan.ForLane(p, true)
		}))
	}
	if *drift != 0 || *skew != 0 { //eucon:float-exact flag sentinel: exactly zero means no skew injection
		opts = append(opts, agent.WithClock(agent.NewSkewedClock(*skew, *drift)))
	}
	fmt.Printf("nodeagent: P%d of %s → %s (etf=%g, codec=%s)\n", *proc+1, sys.Name, *addr, *etf, wire.Name())
	err = agent.RunAgent(ctx, sys, *proc, *addr, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodeagent: %v\n", err)
		return 1
	}
	fmt.Println("nodeagent: shut down cleanly")
	return 0
}

// defaultSeed is the -seed default.
const defaultSeed = 1
