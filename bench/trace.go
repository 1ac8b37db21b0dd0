package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval at a boundary the benchmark itself crosses:
// a layer name, start and end on the benchmark clock (ns), the index of
// the span that caused it (-1 for a root), and the operation it belongs
// to (-1 for spans above a single operation, such as a run or a round).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	spans []span
}

// add appends a span and returns its index, for use as a parent.
func (t *tracer) add(name string, start, end int64, parent, op int32) int32 {
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		self[s.name] += s.dur() - child[i]
	}
	return self
}

// total returns the summed duration of every span called name.
func (t *tracer) total(name string) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.name == name {
			sum += s.dur()
		}
	}
	return sum
}

// coverage returns the share of wall (ns) that the spans with the given
// names account for. A traced run whose spans cover less than minCoverage
// of its timed wall has lost spans.
func (t *tracer) coverage(wall int64, names ...string) float64 {
	if wall <= 0 {
		return 0
	}
	var sum int64
	for _, name := range names {
		sum += t.total(name)
	}
	return float64(sum) / float64(wall)
}

// minCoverage is the least share of the timed wall the operation spans of
// a traced run must cover.
const minCoverage = 0.98

// maxSpansWritten caps the trace file: the farm workloads record several
// spans for each of hundreds of thousands of periods, and the head of the
// run is what a reader opens the file for. The per-layer metrics are
// always computed from every span.
const maxSpansWritten = 50000

// write stores the spans as JSON lines under dir, one span per line after
// a header line, and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":%d,\"written\":%d,\"clock\":\"ns since process start\"}\n",
		workload, seed, len(t.spans), n)
	for i, s := range t.spans[:n] {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d}\n",
			i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
