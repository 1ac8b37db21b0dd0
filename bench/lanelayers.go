package main

import (
	"context"
	"fmt"
	"net"
	"sort"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/task"
)

// wireTotals sums the traced rounds' wire counters.
type wireTotals struct {
	bytesIn, bytesOut, reads, writes int64
}

func (w *wireTotals) add(c *wireCounts) {
	w.bytesIn += c.bytesIn.Load()
	w.bytesOut += c.bytesOut.Load()
	w.reads += c.reads.Load()
	w.writes += c.writes.Load()
}

// frameShapes returns the two frames one agent exchanges with the server
// each period on this workload: processor 0's one-sample report and the
// sparse rates frame for the tasks it hosts.
func frameShapes(sys *task.System) (report, rates lane.Message) {
	report = lane.Message{Type: lane.TypeUtilizationBatch,
		Batch: lane.UtilizationBatch{Processor: 0, First: 1000, Samples: []float64{0.7071}}}
	rates = lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Period: 1000}}
	init := sys.InitialRates()
	for i := range sys.Tasks {
		for _, st := range sys.Tasks[i].Subtasks {
			if st.Processor == 0 {
				rates.Rates.Tasks = append(rates.Rates.Tasks, int32(i))
				rates.Rates.Values = append(rates.Rates.Values, init[i])
				break
			}
		}
	}
	return report, rates
}

// codecReps × codecInner encodes are timed per codec; a single encode is
// shorter than two clock reads, so they are timed in batches.
const (
	codecReps  = 200
	codecInner = 200
)

// laneLayers measures the lane layer directly, on this workload's frame
// shapes: each codec's encode and decode cost and frame size, the send
// queue's hand-off, and one framed round trip over loopback TCP and over
// net.Pipe (framing without the kernel).
func (d *farmLoop) laneLayers(rep *report, sys *task.System) error {
	report, rates := frameShapes(sys)
	for _, c := range []struct {
		key   string
		codec lane.Codec
	}{{"v1", lane.Binary}, {"v2", lane.BinaryV2}, {"json", lane.JSONv0}} {
		var rb, fb []byte
		var err error
		enc := timeBatch(rep, func() {
			if rb, err = c.codec.AppendEncode(rb[:0], &report); err == nil {
				fb, err = c.codec.AppendEncode(fb[:0], &rates)
			}
		})
		if err != nil {
			return fmt.Errorf("%s encode: %w", c.codec.Name(), err)
		}
		var m lane.Message
		dec := timeBatch(rep, func() {
			if err = c.codec.Decode(rb, &m); err == nil {
				err = c.codec.Decode(fb, &m)
			}
		})
		if err != nil {
			return fmt.Errorf("%s decode: %w", c.codec.Name(), err)
		}
		rep.layer["lane."+c.key+".encode_ns"] = enc
		rep.layer["lane."+c.key+".decode_ns"] = dec
		rep.layer["lane."+c.key+".rates_bytes"] = float64(len(fb))
		if c.codec == d.codec {
			rep.layer["lane.batch_bytes"] = float64(len(rb))
		}
	}

	handoff, err := queueHandoff(rep)
	if err != nil {
		return err
	}
	rep.layer["lane.queue_handoff_ns"] = handoff

	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() { //eucon:goroutine-ok joined by the receive on accepted below
		nc, _ := tcp.Accept() // a nil conn fails the dial's peer below
		accepted <- nc
	}()
	client, err := net.Dial("tcp", tcp.Addr().String())
	server := <-accepted
	_ = tcp.Close()
	if err != nil || server == nil {
		return fmt.Errorf("loopback connect: %v", err)
	}
	if rep.layer["lane.conn_rtt_us"], err = pingPong(rep, client, server, d.codec, &report, &rates); err != nil {
		return err
	}
	pc, ps := net.Pipe()
	if rep.layer["lane.pipe_rtt_us"], err = pingPong(rep, pc, ps, d.codec, &report, &rates); err != nil {
		return err
	}
	return nil
}

// timeBatch reports the median time of one fn call in ns, timing
// codecInner calls per sample.
func timeBatch(rep *report, fn func()) float64 {
	clk := rep.clk
	ns := make([]float64, rep.reps(codecReps))
	for i := range ns {
		t0 := clk.now()
		for j := 0; j < codecInner; j++ {
			fn()
		}
		ns[i] = float64(clk.now()-t0) / codecInner
	}
	return median(ns)
}

// handoffReps is how many samples cross the queue.
const handoffReps = 20000

// queueHandoff reports the median time in ns from SendQueue.EnqueueSample
// to the queue's writer goroutine calling the SendFunc.
func queueHandoff(rep *report) (float64, error) {
	clk := rep.clk
	got := make(chan int64, 1)
	q := lane.NewSendQueue(func(context.Context, *lane.Message) error {
		got <- clk.now()
		return nil
	}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.Start(ctx)
	ns := make([]float64, rep.reps(handoffReps))
	for i := range ns {
		t0 := clk.now()
		if err := q.EnqueueSample(0, i, 0.5); err != nil {
			return 0, fmt.Errorf("queue hand-off: %w", err)
		}
		ns[i] = float64(<-got - t0)
	}
	q.Close()
	<-q.Done()
	return median(ns), nil
}

// pingPongReps is how many framed round trips are timed.
const pingPongReps = 5000

// pingPong reports the median framed round trip in µs between two ends of
// a connection: the near end sends a report and waits for rates, the far
// end answers each report with the rates frame. It closes both ends.
func pingPong(rep *report, near, far net.Conn, codec lane.Codec, report, rates *lane.Message) (float64, error) {
	clk, reps := rep.clk, rep.reps(pingPongReps)
	a := lane.NewConn(near, lane.WithConnCodec(codec))
	b := lane.NewConn(far, lane.WithConnCodec(codec))
	echoed := make(chan error, 1)
	go func() { //eucon:goroutine-ok joined by the receive on echoed below
		var m lane.Message
		for i := 0; i < reps; i++ {
			if err := b.ReceiveInto(&m, 0); err != nil {
				echoed <- err
				return
			}
			if err := b.Send(rates, 0); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	us := make([]float64, 0, reps)
	var m lane.Message
	var err error
	for i := 0; i < reps && err == nil; i++ {
		t0 := clk.now()
		if err = a.Send(report, 0); err == nil {
			err = a.ReceiveInto(&m, 0)
		}
		us = append(us, float64(clk.now()-t0)/1e3)
	}
	_ = a.Close()
	if echoErr := <-echoed; err == nil {
		err = echoErr
	}
	_ = b.Close()
	if err != nil {
		return 0, fmt.Errorf("lane round trip: %w", err)
	}
	sort.Float64s(us)
	return percentile(us, 0.5), nil
}
