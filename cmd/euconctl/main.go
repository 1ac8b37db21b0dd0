// Command euconctl is the centralized EUCON controller daemon. It listens
// for node-agent feedback lanes (see cmd/nodeagent), admits agents into the
// membership as they join — surviving leaves, crashes, and rejoins without
// a restart — runs the MIMO model-predictive feedback loop, and prints the
// run record.
//
// Example (SIMPLE workload: 1 controller + 2 node agents):
//
//	euconctl  -listen 127.0.0.1:7070 -workload simple -periods 100 &
//	nodeagent -addr   127.0.0.1:7070 -workload simple -proc 0 -etf 0.5 &
//	nodeagent -addr   127.0.0.1:7070 -workload simple -proc 1 -etf 0.5
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
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
	listen := flag.String("listen", "127.0.0.1:7070", "address to accept node-agent lanes on")
	name := flag.String("workload", "simple", "workload: simple or medium")
	ctrlName := flag.String("controller", "eucon", "controller: eucon or open")
	periods := flag.Int("periods", 100, "number of sampling periods to run (0 = until interrupted)")
	codec := flag.String("codec", "binary", "wire codec for outgoing frames: binary, binary2 (delta-compacted rates), or json")
	queue := flag.Int("queue", lane.DefaultQueueDepth, "per-member send-queue depth (frames)")
	membership := flag.Duration("membership-timeout", agent.DefaultMembershipTimeout, "evict members silent this long")
	periodTimeout := flag.Duration("period-timeout", agent.DefaultPeriodTimeout, "step with hold-last substitutes after waiting this long for reports")
	faultSpec := flag.String("transport-faults", "", "inject transport faults on outbound rate lanes, e.g. drop=0.05,delay=10ms,delayprob=0.5,dup=0.01,reorder=0.01,seed=7 (reseeded per member)")
	trace := flag.Bool("trace", false, "print the per-period utilization table after the run")
	flag.Parse()

	var sys *task.System
	var cfg core.Config
	switch *name {
	case "simple":
		sys, cfg = workload.Simple(), workload.SimpleController()
	case "medium":
		sys, cfg = workload.Medium(), workload.MediumController()
	default:
		fmt.Fprintf(os.Stderr, "euconctl: unknown workload %q\n", *name)
		return 2
	}

	var ctrl sim.Controller
	var err error
	switch *ctrlName {
	case "eucon":
		ctrl, err = core.New(sys, nil, cfg)
	case "open":
		ctrl, err = baseline.NewOpen(sys, nil)
	default:
		fmt.Fprintf(os.Stderr, "euconctl: unknown controller %q\n", *ctrlName)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 1
	}
	wire, err := parseCodec(*codec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 2
	}

	plan, err := fault.ParseTransportPlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 1
	}
	opts := []agent.Option{
		agent.WithPeriods(*periods),
		agent.WithCodec(wire),
		agent.WithSendQueue(*queue),
		agent.WithMembershipTimeout(*membership),
		agent.WithPeriodTimeout(*periodTimeout),
		agent.WithTrace(*trace),
	}
	if !plan.Zero() {
		opts = append(opts, agent.WithTransportFaults(func(p int) lane.Plan {
			return plan.ForLane(p, false)
		}))
	}
	srv, err := agent.NewServer(sys, ctrl, ln, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("euconctl: %s/%s on %s (codec=%s), admitting up to %d node agents\n",
		sys.Name, ctrl.Name(), ln.Addr(), wire.Name(), sys.Processors)
	start := time.Now() //eucon:wallclock-ok operational run timing for the printed summary
	res, err := srv.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "euconctl: %v\n", err)
		return 1
	}
	elapsed := time.Since(start) //eucon:wallclock-ok operational run timing for the printed summary
	fmt.Printf("euconctl: %d periods in %v — joins=%d rejoins=%d leaves=%d crashes=%d live=%d missed=%d stale=%d skipped=%d frames in/out=%d/%d dropped=%d injected=%d\n",
		res.Periods, elapsed.Round(time.Millisecond), res.Joins, res.Rejoins, res.Leaves, res.Crashes, res.LiveAtEnd,
		res.MissedReports, res.StaleSamples, res.SkippedSteps, res.FramesIn, res.FramesOut, res.DroppedSamples, res.InjectedDrops)
	if *trace {
		fmt.Print("period")
		for p := 0; p < sys.Processors; p++ {
			fmt.Printf("\tu(P%d)", p+1)
		}
		fmt.Println()
		for k, u := range res.Utilization {
			fmt.Printf("%d", k+1)
			for _, v := range u {
				fmt.Printf("\t%.4f", v)
			}
			fmt.Println()
		}
	}
	return 0
}

// parseCodec maps the -codec flag to a lane codec.
func parseCodec(name string) (lane.Codec, error) {
	switch name {
	case "binary":
		return lane.Binary, nil
	case "binary2":
		return lane.BinaryV2, nil
	case "json":
		return lane.JSONv0, nil
	default:
		return nil, fmt.Errorf("unknown codec %q (want binary, binary2, or json)", name)
	}
}
