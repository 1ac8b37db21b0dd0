// Distributed: the paper's §4 architecture running over real TCP — a
// centralized model-predictive controller connected by feedback lanes to
// one node agent per processor, each hosting a utilization monitor and a
// rate modulator. This example launches everything in one process over
// loopback; cmd/euconctl and cmd/nodeagent are the same pieces as separate
// binaries for real deployments.
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	eucon "github.com/rtsyslab/eucon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewController(sys, nil, eucon.SimpleControllerConfig())
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// One node agent per processor, each on its own goroutine with its own
	// TCP connection — exactly how the separate nodeagent binaries run.
	var wg sync.WaitGroup
	for p := 0; p < sys.Processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The estimates are 2x pessimistic: actual execution times are
			// half of what the controller's model assumes.
			err := eucon.RunNodeAgent(ctx, sys, p, addr, eucon.DistributedETF(eucon.ConstantETF(0.5)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "node P%d: %v\n", p+1, err)
			}
		}()
	}

	fmt.Printf("controller on %s, %d node agents, 80 feedback periods over TCP\n", addr, sys.Processors)
	res, err := eucon.ServeController(ctx, sys, ctrl, ln,
		eucon.DistributedPeriods(80), eucon.DistributedTrace(true))
	wg.Wait()
	if err != nil {
		return err
	}

	fmt.Println("\nperiod  u(P1)   u(P2)")
	for k := 0; k < len(res.Utilization); k += 10 {
		fmt.Printf("%6d  %.4f  %.4f\n", k+1, res.Utilization[k][0], res.Utilization[k][1])
	}
	last := res.Utilization[len(res.Utilization)-1]
	fmt.Printf("\nfinal utilizations %.4f / %.4f — set point 0.828 reached across real sockets\n", last[0], last[1])
	return nil
}
