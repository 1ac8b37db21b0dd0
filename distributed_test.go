package eucon_test

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	eucon "github.com/rtsyslab/eucon"
)

// TestServeControllerFacade drives the paper's SIMPLE workload through the
// root distributed facade: one controller daemon, two node agents (one per
// processor, deliberately on different wire codecs), lockstep loop.
func TestServeControllerFacade(t *testing.T) {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewController(sys, nil, eucon.SimpleControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	codecs := []eucon.WireCodec{eucon.BinaryCodec, eucon.JSONCodec}
	for p := 0; p < sys.Processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := eucon.RunNodeAgent(ctx, sys, p, addr,
				eucon.DistributedETF(eucon.ConstantETF(1)),
				eucon.DistributedCodec(codecs[p%len(codecs)]))
			if err != nil {
				t.Errorf("agent P%d: %v", p+1, err)
			}
		}()
	}

	// A lockstep daemon steps whoever has joined, at socket speed: the run
	// is long enough that the first joiner's head start (a few periods) is
	// a vanishing part of it and both agents are members well before the
	// tail the assertions read.
	const periods = 2000
	res, err := eucon.ServeController(ctx, sys, ctrl, ln,
		eucon.DistributedPeriods(periods), eucon.DistributedTrace(true))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != periods || res.Joins != sys.Processors || res.Crashes != 0 {
		t.Fatalf("run record: periods=%d joins=%d crashes=%d", res.Periods, res.Joins, res.Crashes)
	}
	sp := ctrl.SetPoints()
	final := res.Utilization[len(res.Utilization)-1]
	for p, v := range final {
		if math.Abs(v-sp[p]) > 0.05 {
			t.Errorf("u(P%d) = %.4f, want %.4f ± 0.05", p+1, v, sp[p])
		}
	}
}
