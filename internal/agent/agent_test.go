package agent

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// runOK runs f under a one-minute deadline and fails the test on error.
func runOK(t *testing.T, f *Fleet) *FleetResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// joinOrderDigest pins the lockstep SIMPLE fleet of
// TestLockstepTrajectoryIndependentOfJoinOrder: FNV-1a over the float bits
// of every traced utilization and rate row.
const joinOrderDigest = "cb72efe9ebfa6187"

// TestLockstepTrajectoryIndependentOfJoinOrder launches one seeded
// lockstep fleet three ways — in order, reversed, and with P2 ~100 ms
// late — and requires one pinned digest. Quorum start makes the run a
// pure function of its seeds: the first agent to join is never stepped
// alone while the other is still connecting.
func TestLockstepTrajectoryIndependentOfJoinOrder(t *testing.T) {
	sys := workload.Simple()
	for _, tc := range []struct {
		name  string
		delay [2]time.Duration // launch delay of P1, P2
	}{
		{"in-order", [2]time.Duration{}},
		{"reversed", [2]time.Duration{20 * time.Millisecond, 0}},
		{"second-late", [2]time.Duration{0, 100 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
				Server: []Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
				Agent: func(p int) []Option {
					time.Sleep(tc.delay[p])
					return []Option{WithETF(sim.ConstantETF(1)), WithJitter(0.02), WithSeed(int64(p + 1))}
				}})
			h := fnv.New64a()
			for k := range res.Utilization {
				_ = binary.Write(h, binary.LittleEndian, res.Utilization[k])
				_ = binary.Write(h, binary.LittleEndian, res.Rates[k])
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); res.Periods != 60 || got != joinOrderDigest {
				t.Errorf("periods=%d digest %s, want 60 and %s", res.Periods, got, joinOrderDigest)
			}
		})
	}
}

// TestClusterConvergesToSetPoints is the paper's claim over real lanes:
// actual execution times are half the estimates, and the loop still
// settles both processors on their set points.
func TestClusterConvergesToSetPoints(t *testing.T) {
	sys := workload.Simple()
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(80), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		Agent: func(int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod)}
		}})
	if res.Periods != 80 || res.MissedReports != 0 {
		t.Fatalf("periods=%d missed=%d, want 80 full-fleet periods", res.Periods, res.MissedReports)
	}
	for p, mean := range TailMeans(res.Utilization, 40) {
		if math.Abs(mean-0.828) > 0.02 {
			t.Errorf("P%d tail mean over lanes = %v, want ≈ 0.828", p+1, mean)
		}
	}
}

func TestClusterMediumWithJitter(t *testing.T) {
	sys := workload.Medium()
	ctrl, err := core.New(sys, nil, workload.MediumController())
	if err != nil {
		t.Fatal(err)
	}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: ctrl,
		Server: []Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithJitter(0.02), WithSeed(int64(p + 1))}
		}})
	if res.Periods != 60 {
		t.Fatalf("Periods = %d, want 60", res.Periods)
	}
	b := sys.DefaultSetPoints()
	for p, mean := range TailMeans(res.Utilization, 30) {
		if math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean = %v, want ≈ %v", p+1, mean, b[p])
		}
	}
}

// dropRange drops every message index in [from, to), defeating retries
// when the range covers all attempts of one report.
type dropRange struct{ from, to uint64 }

func (d dropRange) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	return n >= d.from && n < d.to, 0, false, false
}

// TestServerDegradesAroundLostReport is the end-to-end degradation path:
// one agent's period-2 report is dropped beyond its retry budget, the
// server's period timeout steps the loop on the hold-last substitute, and
// the agent that lost its report rejoins the lockstep on the broadcast.
func TestServerDegradesAroundLostReport(t *testing.T) {
	sys := workload.Simple()
	// P2's report for period 2 occupies message indices 2, 3, 4 of its
	// report lane (initial send plus the default policy's two retries);
	// dropping all three loses it for good. P1 runs fault-free.
	plans := []lane.Plan{nil, dropRange{2, 5}}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(6), WithTrace(true), WithPeriodTimeout(200 * time.Millisecond)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithTransportFaults(func(int) lane.Plan { return plans[p] })}
		}})
	if res.Periods != 6 {
		t.Fatalf("run covered %d periods, want 6 despite the lost report", res.Periods)
	}
	if res.MissedReports != 1 || res.ControllerErrors != 0 {
		t.Errorf("missed=%d controller errors=%d, want 1 and 0", res.MissedReports, res.ControllerErrors)
	}
	if got, want := res.Utilization[2][1], res.Utilization[1][1]; got != want {
		t.Errorf("period 2 P2 utilization = %v, want the hold-last substitute %v", got, want)
	}
	for k, rates := range res.Rates {
		for i, r := range rates {
			if math.IsNaN(r) || r <= 0 {
				t.Errorf("period %d rate[%d] = %v; the lost report leaked into actuation", k, i, r)
			}
		}
	}
}

// TestServerSkipsPastStalenessBound loses one agent's reports for periods
// 2 through 8 in lockstep. The server feeds its period-1 sample for ages 1
// to sim.StalenessBound (periods 2–5), then skips periods 6–8: no Step,
// the rates held and rebroadcast. The loop resumes when reports return.
func TestServerSkipsPastStalenessBound(t *testing.T) {
	sys := workload.Simple()
	// Each lost report is three message indices (initial send plus the
	// default policy's two retries); P2's period-2 report starts at index 2.
	const first, last = 2, 8
	plans := []lane.Plan{nil, dropRange{first, first + 3*(last-first+1)}}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(12), WithTrace(true), WithPeriodTimeout(100 * time.Millisecond)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithTransportFaults(func(int) lane.Plan { return plans[p] })}
		}})
	if res.Periods != 12 || res.ControllerErrors != 0 {
		t.Fatalf("periods=%d controller errors=%d, want 12 and 0", res.Periods, res.ControllerErrors)
	}
	if res.MissedReports != last-first+1 || res.SkippedSteps != 3 {
		t.Errorf("missed=%d skipped=%d, want %d and 3", res.MissedReports, res.SkippedSteps, last-first+1)
	}
	for k := first; k <= last; k++ {
		if got, want := res.Utilization[k][1], res.Utilization[1][1]; got != want {
			t.Errorf("period %d P2 utilization = %v, want the period-1 sample %v", k, got, want)
		}
	}
	moved := func(k int) bool { return !slices.Equal(res.Rates[k+1], res.Rates[k]) }
	for k := first; k < len(res.Rates)-1; k++ {
		if skipped := k >= first+sim.StalenessBound && k <= last; moved(k) == skipped {
			t.Errorf("period %d: rates moved = %v, want %v (skipped periods hold, others steer)", k, moved(k), !skipped)
		}
	}
}

// TestServerHoldsUnreportedMemberAtSetPoint loses one agent's first two
// reports in lockstep: with no sample of that member yet, the server feeds
// the controller the member's set point, steps both periods, and switches
// to the member's own samples once they arrive.
func TestServerHoldsUnreportedMemberAtSetPoint(t *testing.T) {
	sys := workload.Simple()
	ctrl := simpleController(t, sys)
	sp := ctrl.SetPoints()[1]
	// Periods 0 and 1: three message indices each (initial send plus the
	// default policy's two retries).
	plans := []lane.Plan{nil, dropRange{0, 6}}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: ctrl,
		Server: []Option{WithPeriods(5), WithTrace(true), WithPeriodTimeout(100 * time.Millisecond)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithTransportFaults(func(int) lane.Plan { return plans[p] })}
		}})
	if res.Periods != 5 || res.ControllerErrors != 0 || res.SkippedSteps != 0 {
		t.Fatalf("periods=%d controller errors=%d skipped=%d, want 5, 0 and 0", res.Periods, res.ControllerErrors, res.SkippedSteps)
	}
	for k := 0; k < 2; k++ {
		if got := res.Utilization[k][1]; got != sp {
			t.Errorf("period %d P2 utilization = %v, want its set point %v", k, got, sp)
		}
	}
	if got := res.Utilization[2][1]; got == sp || math.IsNaN(got) {
		t.Errorf("period 2 P2 utilization = %v, want the member's own sample", got)
	}
}

// TestClusterLossyTransportConverges drives the full loop through a
// probabilistic fault.TransportPlan on every agent: with retries on, 5%
// per-attempt loss is almost always recovered, hold-last absorbs the
// rest, and the closed loop still converges to the set points.
func TestClusterLossyTransportConverges(t *testing.T) {
	sys := workload.Simple()
	plans := []lane.Plan{
		fault.TransportPlan{DropProb: 0.05, Seed: 1},
		fault.TransportPlan{DropProb: 0.05, DelayProb: 0.1, Delay: time.Millisecond, Seed: 2},
	}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(80), WithTrace(true), WithPeriodTimeout(200 * time.Millisecond)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithTransportFaults(func(int) lane.Plan { return plans[p] })}
		}})
	if res.Periods != 80 {
		t.Fatalf("run covered %d periods, want 80", res.Periods)
	}
	b := sys.DefaultSetPoints()
	for p, mean := range TailMeans(res.Utilization, 40) {
		if math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean %v over a lossy transport, want ≈ %v", p+1, mean, b[p])
		}
	}
	t.Logf("lossy transport: %d reports degraded around", res.MissedReports)
}

func TestServerValidation(t *testing.T) {
	sys := workload.Simple()
	ctrl := simpleController(t, sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	tests := []struct {
		name string
		sys  *task.System
		ctrl sim.Controller
		ln   net.Listener
	}{
		{"nil system", nil, ctrl, ln},
		{"nil controller", sys, nil, ln},
		{"nil listener", sys, ctrl, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewServer(tc.sys, tc.ctrl, tc.ln); err == nil {
				t.Fatal("invalid arguments accepted")
			}
		})
	}
}

func TestRunAgentValidation(t *testing.T) {
	ctx := context.Background()
	if err := RunAgent(ctx, nil, 0, "127.0.0.1:1"); err == nil {
		t.Error("nil system accepted")
	}
	sys := workload.Simple()
	if err := RunAgent(ctx, sys, 9, "127.0.0.1:1"); err == nil {
		t.Error("out-of-range processor accepted")
	}
	// Unreachable server.
	if err := RunAgent(ctx, sys, 0, "127.0.0.1:1", WithIOTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial to closed port succeeded")
	}
}
