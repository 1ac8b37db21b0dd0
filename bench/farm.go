package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// farmLoop describes a workload that closes the loop over the distributed
// runtime: one agent.Server and one agent.RunAgent per processor, all in
// this process, talking over loopback TCP in lockstep.
type farmLoop struct {
	ctl     *ctlSpec
	codec   lane.Codec
	jitter  float64
	periods int // per round
}

// farmJoinTimeout bounds how long set-up waits for every agent to join.
const farmJoinTimeout = 20 * time.Second

// startBarrier makes the farm's rate trajectory a pure function of the
// seed. The server steps as soon as every *live* member has reported, so
// without it the first agent to join is stepped alone and the trajectory
// depends on join order. The barrier holds each accepted connection's
// first server write — the join-ack — until all n members have one pending
// and the benchmark has started its clock; from then on every lockstep
// period has all n reports.
type startBarrier struct {
	n       int
	mu      sync.Mutex
	pending int
	ready   chan struct{} // closed when all n join-acks are pending
	start   chan struct{} // closed by the benchmark to release them
	abort   chan struct{} // closed when the fleet is torn down instead
	aborted sync.Once
}

func newStartBarrier(n int) *startBarrier {
	return &startBarrier{n: n, ready: make(chan struct{}), start: make(chan struct{}), abort: make(chan struct{})}
}

// arrive blocks the calling writer until the barrier opens.
func (b *startBarrier) arrive() {
	b.mu.Lock()
	b.pending++
	if b.pending == b.n {
		close(b.ready)
	}
	b.mu.Unlock()
	select {
	case <-b.start:
	case <-b.abort:
	}
}

// giveUp releases every parked writer without starting the run, so a
// fleet that failed to assemble can be torn down: the server's shutdown
// waits for its send queues, whose writers are the ones parked here.
func (b *startBarrier) giveUp() { b.aborted.Do(func() { close(b.abort) }) }

// wireCounts counts what crosses the server's side of the lanes.
type wireCounts struct {
	bytesIn, bytesOut, reads, writes atomic.Int64
}

// farmListener hands the server connections that pass through the start
// barrier and, in traced rounds (counts non-nil), count bytes and calls.
type farmListener struct {
	net.Listener
	barrier *startBarrier
	counts  *wireCounts
}

func (l *farmListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &farmConn{Conn: nc, barrier: l.barrier, counts: l.counts}, nil
}

func (l *farmListener) Close() error {
	l.barrier.giveUp()
	return l.Listener.Close()
}

type farmConn struct {
	net.Conn
	barrier *startBarrier
	counts  *wireCounts
	joined  sync.Once
}

func (c *farmConn) Write(p []byte) (int, error) {
	c.joined.Do(c.barrier.arrive)
	n, err := c.Conn.Write(p)
	if c.counts != nil {
		c.counts.writes.Add(1)
		c.counts.bytesOut.Add(int64(n))
	}
	return n, err
}

func (c *farmConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.counts != nil {
		c.counts.reads.Add(1)
		c.counts.bytesIn.Add(int64(n))
	}
	return n, err
}

// agentLog is one agent's latency record, written only by that agent's
// loop goroutine through its latency sink.
type agentLog struct {
	clk    clock
	traced bool
	rtt    []int64 // report sent → rates applied, ns
	end    []int64 // traced: when each round trip ended
}

func (a *agentLog) sink(_ int, rtt time.Duration) {
	a.rtt = append(a.rtt, int64(rtt))
	if a.traced {
		a.end = append(a.end, a.clk.now())
	}
}

// farmInstance is a joined fleet parked at the start barrier.
type farmInstance struct {
	def     *farmLoop
	sys     *task.System
	ctl     *loopController
	periods int
	traced  bool
	barrier *startBarrier
	counts  *wireCounts
	logs    []*agentLog
	cancel  context.CancelFunc
	agents  sync.WaitGroup
	errMu   sync.Mutex
	errs    []error
	done    chan farmOutcome
	served  bool // the server's outcome has been received
}

type farmOutcome struct {
	res *agent.ServerResult
	err error
}

// agentSeed derives agent p's noise seed for a round from the benchmark
// seed.
func agentSeed(seed int64, round, p int) int64 { return runSeed(seed, round, p) + 1 }

// setup builds the controller, listens, starts the server and one agent
// per processor, and returns once every agent's join-ack is held at the
// barrier.
func (d *farmLoop) setup(rep *report, work int, traced bool) (instance, error) {
	launched := rep.clk.now()
	sys, err := d.ctl.system()
	if err != nil {
		return nil, err
	}
	inner, err := d.ctl.build(sys)
	if err != nil {
		return nil, err
	}
	n := sys.Processors
	in := &farmInstance{
		def: d, sys: sys, periods: max(200, d.periods/rep.size), traced: traced,
		barrier: newStartBarrier(n), done: make(chan farmOutcome, 1),
	}
	in.ctl = newLoopController(inner, rep.clk, in.periods, n+len(sys.Tasks), true)
	in.ctl.rewind(in.traced)
	if in.traced {
		in.counts = &wireCounts{}
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ln := &farmListener{Listener: tcp, barrier: in.barrier, counts: in.counts}
	srv, err := agent.NewServer(sys, in.ctl, ln, agent.WithPeriods(in.periods), agent.WithCodec(d.codec))
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	in.cancel = cancel
	go func() { //eucon:goroutine-ok joined by run's (or close's) receive on done
		res, err := srv.Run(ctx)
		in.done <- farmOutcome{res, err}
	}()
	addr := tcp.Addr().String()
	for p := 0; p < n; p++ {
		log := &agentLog{clk: rep.clk, traced: in.traced, rtt: make([]int64, 0, in.periods+1)}
		if in.traced {
			log.end = make([]int64, 0, in.periods+1)
		}
		in.logs = append(in.logs, log)
		opts := []agent.Option{
			agent.WithETF(sim.ConstantETF(1)),
			agent.WithSamplingPeriod(workload.SamplingPeriod),
			agent.WithSeed(agentSeed(rep.seed, work, p)),
			agent.WithJitter(d.jitter),
			agent.WithCodec(d.codec),
			agent.WithLatencySink(log.sink),
		}
		in.agents.Add(1)
		go func(p int) {
			defer in.agents.Done()
			if err := agent.RunAgent(ctx, sys, p, addr, opts...); err != nil && ctx.Err() == nil {
				in.errMu.Lock()
				in.errs = append(in.errs, err)
				in.errMu.Unlock()
				cancel()
			}
		}(p)
	}
	select {
	case <-in.barrier.ready:
	case <-ctx.Done():
		in.close()
		return nil, fmt.Errorf("fleet failed to join: %w", errors.Join(in.errs...))
	case <-time.After(farmJoinTimeout):
		in.close()
		return nil, errors.New("fleet did not reach the start barrier")
	}
	rep.joins = append(rep.joins, float64(rep.clk.now()-launched)/1e6)
	runtime.GC()
	return in, nil
}

// close stops whatever is still running and waits for it.
func (in *farmInstance) close() {
	in.barrier.giveUp()
	in.cancel()
	if !in.served {
		<-in.done
		in.served = true
	}
	in.agents.Wait()
}

// run opens the barrier and times the fleet through its periods.
func (in *farmInstance) run(rep *report, work int, traced bool) error {
	n := in.sys.Processors
	m0 := markMem()
	t0 := rep.clk.now()
	close(in.barrier.start)
	out := <-in.done
	t1 := rep.clk.now()
	in.served = true
	in.agents.Wait()
	rep.addMem(m0, markMem())
	if out.err != nil {
		return out.err
	}
	if len(in.errs) > 0 {
		return errors.Join(in.errs...)
	}
	res := out.res
	if res.Periods != in.periods || len(in.ctl.exit) != in.periods {
		return fmt.Errorf("server stepped %d of %d periods", res.Periods, in.periods)
	}

	ops := make([]float64, 0, n*in.periods)
	for _, log := range in.logs {
		for _, ns := range log.rtt {
			ops = append(ops, float64(ns)/1e3)
		}
	}
	samples := len(ops)
	rep.attempted += n * in.periods
	rep.failed += res.MissedReports + res.StaleSamples + int(res.DroppedSamples) + res.ControllerErrors +
		(n*in.periods - samples)
	if res.Joins != n || res.Rejoins+res.Crashes+res.Leaves != 0 {
		rep.violate(fmt.Sprintf("membership changed mid-run: %d joins, %d rejoins, %d crashes, %d leaves",
			res.Joins, res.Rejoins, res.Crashes, res.Leaves))
	}

	// Loop quality as seen at Step: the last tenth of the periods.
	seen := in.ctl.recorded(n)
	rows := make([][]float64, in.periods)
	dg := newDigest()
	for k := range rows {
		u, rates := seen.row(k)
		rows[k] = u
		dg.floats(u)
		dg.floats(rates)
	}
	rep.track.addWindow(rows, in.periods/10, in.ctl.SetPoints())
	in.checkPlant(rep, seen)
	if rep.bookDigest(work, dg.sum()) {
		rep.firstRun = seen
		if rep.traceMode {
			rep.replay = append(rep.replay, rep.firstRun)
		}
	}
	if traced {
		in.bookSpans(rep, t0, t1, int32(len(rep.tracedOps)))
		rep.wire.add(in.counts)
		for _, q := range res.PeerQueues {
			rep.queue.Sent += q.Sent
			rep.queue.Coalesced += q.Coalesced
			rep.queue.SupersededRates += q.SupersededRates
			rep.queue.DroppedSamples += q.DroppedSamples
		}
	}
	rep.addRound(traced, in.periods, t1-t0, ops)
	return nil
}

// checkPlant verifies what the agents reported against what the server
// commanded: agent p's utilization at period k must be its row of the
// allocation matrix times the rates the controller held at k, within the
// agent's ±jitter band (or clipped to 1). A frame decoded wrongly, applied
// to the wrong task or applied late breaks this.
func (in *farmInstance) checkPlant(rep *report, seen replayRun) {
	f := in.sys.AllocationMatrix()
	lo, hi := 1-in.def.jitter-1e-9, 1+in.def.jitter+1e-9
	for k := 0; k < seen.steps(); k++ {
		u, rates := seen.row(k)
		for p := range u {
			est := 0.0
			for i, r := range rates {
				est += f.At(p, i) * r
			}
			if v := u[p]; !(v >= math.Min(1, est*lo) && v <= math.Min(1, est*hi)) {
				rep.violate(fmt.Sprintf("period %d: P%d reported u=%.6f for commanded rates giving %.6f", k, p+1, v, est))
				return
			}
		}
	}
}

// bookSpans turns a traced round's stamps into spans. Server side, each
// period is collect (Step exit k−1 → Step entry k: frames in flight, the
// readers, the barrier of n reports) followed by step; agent side, each
// operation is one report-sent → rates-applied round trip.
func (in *farmInstance) bookSpans(rep *report, t0, t1 int64, firstOp int32) {
	round := rep.tr.add("round", t0, t1, -1, -1)
	prev := t0
	for k, e := range in.ctl.exit {
		enter := in.ctl.enter[k]
		period := rep.tr.add("period", prev, e, round, -1)
		rep.tr.add("agent.collect", prev, enter, period, -1)
		rep.tr.add("agent.step", enter, e, period, -1)
		rep.steps = append(rep.steps, float64(e-enter)/1e3)
		if k > 0 {
			rep.collects = append(rep.collects, float64(enter-prev)/1e3)
		}
		prev = e
	}
	for p, log := range in.logs {
		for k, end := range log.end {
			rep.tr.add("op", end-log.rtt[k], end, round, firstOp+int32(p*len(log.end)+k))
		}
	}
}

func (d *farmLoop) coverSpans() []string { return []string{"period"} }

// verify replays round 0's recorded sequence through a fresh controller.
func (d *farmLoop) verify(rep *report) error { return d.ctl.verifyReplay(rep) }

// layers prices the lane layer directly, then closes the farm's budget:
// op_p50 = lane.conn_rtt + agent.step_p50 + agent.overhead, the last being
// the named residual (send queues, reader goroutines, the collect barrier
// and scheduling), and hands the step to the controller's own layers.
func (d *farmLoop) layers(rep *report) error {
	sys, err := d.ctl.system()
	if err != nil {
		return err
	}
	if err := d.laneLayers(rep, sys); err != nil {
		return err
	}
	periods := float64(len(rep.steps))
	rep.layer["lane.wire_bytes_in_per_period"] = float64(rep.wire.bytesIn) / periods
	rep.layer["lane.wire_bytes_out_per_period"] = float64(rep.wire.bytesOut) / periods
	rep.layer["lane.reads_per_period"] = float64(rep.wire.reads) / periods
	rep.layer["lane.writes_per_period"] = float64(rep.wire.writes) / periods

	stepP50, opP50 := median(rep.steps), median(rep.tracedOps)
	stepShare := float64(rep.tr.total("agent.step")) / float64(rep.tracedWall)
	rep.layer["agent.step_p50_us"] = stepP50
	rep.layer["agent.step_share"] = stepShare
	rep.layer["agent.collect_us"] = median(rep.collects)
	rep.layer["agent.overhead_us"] = opP50 - stepP50 - rep.layer["lane.conn_rtt_us"]
	rep.layer["trace.residual_frac"] = rep.layer["agent.overhead_us"] / opP50
	rep.layer["agent.join_ms"] = median(rep.joins)
	rep.layer["agent.queue.sent"] = float64(rep.queue.Sent) / periods
	rep.layer["agent.queue.coalesced"] = float64(rep.queue.Coalesced) / periods
	rep.layer["agent.queue.superseded"] = float64(rep.queue.SupersededRates) / periods
	rep.layer["agent.queue.dropped"] = float64(rep.queue.DroppedSamples) / periods
	return d.ctl.layers(rep, rep.steps, stepShare)
}
