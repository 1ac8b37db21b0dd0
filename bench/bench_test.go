package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The tail rule: the workload's fixed percentile when at least ten samples
// lie beyond it, otherwise the highest lower step that has them.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 0.99, got: 0.99}, // exactly ten beyond
		{n: 999, want: 0.99, got: 0.95},
		{n: 200, want: 0.99, got: 0.95},
		{n: 199, want: 0.99, got: 0.9},
		{n: 120, want: 0.90, got: 0.90},
		{n: 40, want: 0.95, got: 0.75},
		{n: 12, want: 0.99, got: 0.5},
		{n: 100000, want: 0.95, got: 0.95}, // never above the fixed percentile
	} {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	// Every full-size workload has the samples for its own percentile.
	for _, w := range workloads {
		var perRound int
		switch l := w.loop.(type) {
		case *sweepLoop:
			perRound = l.calls
		case *simLoop:
			perRound = l.runs * l.periods
		case *farmLoop:
			sys, err := l.ctl.system()
			if err != nil {
				t.Fatal(err)
			}
			perRound = l.periods * sys.Processors
		}
		if got := tailPercentile(perRound, w.tailPct); got != w.tailPct {
			t.Errorf("%s: a round of %d operations supports p%g, not its p%g", w.name, perRound, 100*got, 100*w.tailPct)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g; want 1, 4", q1, q3)
	}
}

func TestDigestIsFNV64aOverFloatBits(t *testing.T) {
	vals := []float64{0.5, math.Copysign(0, -1), math.Inf(1), 1e-300}
	want := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		want.Write(b[:])
	}
	d := newDigest()
	d.floats(vals[:2])
	d.floats(vals[2:])
	if d.sum() != want.Sum64() {
		t.Errorf("digest %016x, want %016x", d.sum(), want.Sum64())
	}
	// Order and sign of zero both matter: it is a digest of bits.
	e := newDigest()
	e.floats([]float64{0.5, 0.0, math.Inf(1), 1e-300})
	if e.sum() == d.sum() {
		t.Error("digest ignores the sign of zero")
	}
}

func TestBookDigestPairsTracedAndUntraced(t *testing.T) {
	rep := &report{}
	if !rep.bookDigest(0, 7) || rep.bookDigest(0, 7) || rep.bookDigest(1, 9) {
		t.Error("only the first digest of work unit 0 is the process's first")
	}
	if len(rep.violations) != 0 {
		t.Fatalf("agreeing digests violated: %v", rep.violations)
	}
	rep.bookDigest(1, 10)
	if len(rep.violations) != 1 {
		t.Error("a traced/untraced digest mismatch must be a violation")
	}
}

// The start barrier must hold every connection's first server write until
// all members have one pending and the benchmark says go.
func TestStartBarrierHoldsJoinAcks(t *testing.T) {
	const n = 3
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	barrier := newStartBarrier(n)
	counts := &wireCounts{}
	ln := &farmListener{Listener: tcp, barrier: barrier, counts: counts}
	defer ln.Close()

	var written atomic.Int32
	done := make(chan error, n)
	var clients []net.Conn
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", tcp.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
		sc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if i == n-1 {
			// With n-1 writers parked the barrier must not be ready.
			select {
			case <-barrier.ready:
				t.Fatal("barrier ready before every member had a write pending")
			case <-time.After(20 * time.Millisecond):
			}
		}
		go func() {
			_, err := sc.Write([]byte("ack"))
			written.Add(1)
			if err == nil {
				_, err = sc.Write([]byte("more")) // only the first write waits
			}
			done <- err
		}()
	}
	<-barrier.ready
	if got := written.Load(); got != 0 {
		t.Fatalf("%d join-acks written before the barrier opened", got)
	}
	close(barrier.start)
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 7)
	for _, c := range clients {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ackmore" {
			t.Fatalf("client read %q, %v", buf, err)
		}
	}
	if counts.writes.Load() != 2*n || counts.bytesOut.Load() != 7*n {
		t.Errorf("counted %d writes, %d bytes; want %d, %d", counts.writes.Load(), counts.bytesOut.Load(), 2*n, 7*n)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	var tr tracer
	round := tr.add("round", 0, 1000, -1, -1)
	op0 := tr.add("op", 0, 400, round, 0)
	tr.add("step", 100, 400, op0, 0)
	op1 := tr.add("op", 400, 990, round, 1)
	tr.add("step", 500, 990, op1, 1)
	self := tr.selfTimes()
	if self["op"] != 200 || self["step"] != 790 || self["round"] != 10 {
		t.Errorf("self times %v; want op 200, step 790, round 10", self)
	}
	if got := tr.coverage(1000, "op"); got != 0.99 {
		t.Errorf("coverage %g, want 0.99", got)
	}
	// A lost span shows as missing coverage.
	tr.spans = tr.spans[:3]
	if got := tr.coverage(1000, "op"); got >= minCoverage {
		t.Errorf("coverage %g after losing a span, want below %g", got, minCoverage)
	}
}

// A run through the benchmark's controller wrapper must equal an unwrapped
// run bit for bit, reporter-fed statistics included.
func TestWrappedRunEqualsUnwrapped(t *testing.T) {
	for _, c := range []struct {
		name   string
		sys    *task.System
		cfg    core.Config
		etf    sim.ETFSchedule
		jitter float64
	}{
		{"SIMPLE", workload.Simple(), workload.SimpleController(), sim.ConstantETF(3), 0},
		{"MEDIUM", workload.Medium(), workload.MediumController(), experiments.DynamicETF(), workload.MediumJitter},
		{"MEDIUM-explicit", workload.Medium(), func() core.Config { c := workload.MediumController(); c.Explicit = true; return c }(), experiments.DynamicETF(), workload.MediumJitter},
	} {
		run := func(wrap bool) *sim.Trace {
			inner, err := core.New(c.sys, nil, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ctl sim.Controller = inner
			if wrap {
				lc := newLoopController(inner, newClock(), 120, c.sys.Processors+len(c.sys.Tasks), true)
				lc.rewind(true)
				ctl = lc
			}
			s, err := sim.New(sim.Config{System: c.sys, SamplingPeriod: workload.SamplingPeriod, Periods: 120,
				Controller: ctl, ETF: c.etf, Jitter: c.jitter, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		plain, wrapped := run(false), run(true)
		if !reflect.DeepEqual(plain, wrapped) {
			t.Errorf("%s: wrapped trace differs from the unwrapped one", c.name)
		}
		if c.cfg.Explicit && plain.Stats.ExplicitHits+plain.Stats.ExplicitMisses == 0 {
			t.Errorf("%s: explicit counters never moved, so the forwarding went untested", c.name)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly what the
// benchmark's own tables say it emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []decl, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v, defined %g (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)
}

// Every workload, untraced and traced, at about 1/50 of its size: the
// benchmark's own plumbing — set-up, rounds, checks, replays, kernels, the
// result line — under go test.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := measure(w, options{seed: 3, smoke: true, trace: trace, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			ms := rep.endToEnd()
			want := len(endToEndMetrics)
			if trace {
				ms, want = rep.perLayer(), len(layerMetrics)
			}
			if !rep.correct() {
				t.Errorf("%s trace=%v: %d failed operations, violations %v", w.name, trace, rep.failed, rep.violations)
			}
			if len(ms) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(ms), want)
			}
			for i, m := range ms {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s is %v", w.name, m.name, m.value)
				}
				if !trace && (m.name != endToEndMetrics[i].name || m.value <= 0) {
					t.Errorf("%s: end-to-end metric %d is %s = %v; want %s, positive", w.name, i, m.name, m.value, endToEndMetrics[i].name)
				}
			}
			var res childResult
			if err := json.Unmarshal([]byte(resultLine(rep.correct(), rep.attempted, rep.failed, ms)), &res); err != nil {
				t.Errorf("%s: result line is not JSON: %v", w.name, err)
			}
			if len(res.Metrics) != want || res.Attempted < 1 {
				t.Errorf("%s: result line carries %d metrics for %d operations", w.name, len(res.Metrics), res.Attempted)
			}
		}
	}
	if took := time.Since(start); took > 15*time.Second && !raceEnabled {
		t.Errorf("smoke pass took %v, want under 15s", took)
	}
}
