package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rtsyslab/eucon/internal/experiments"
)

// TestGoldenDigests regenerates every digest file under scripts/golden/ in
// process and requires it byte for byte, so "bit-identical" is something
// go test ./... enforces: a change that moves a controlled trajectory, a
// sweep series or the degradation behaviour of a faulted run fails here.
// When a move is intended, regenerate the file with the command named in
// the failure and say why in the change. The two LARGE workloads take
// several seconds each (minutes under the race detector) and are skipped
// under -short and -race.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		file, regen string
		slow        bool
		print       func(context.Context, io.Writer) error
	}{
		{file: "sweep-fig4-fig5.digest", regen: "-sweep-digest",
			print: func(ctx context.Context, w io.Writer) error { return sweepDigests(ctx, w, false) }},
		{file: "fault-proc2-crash-recover.digest", regen: "-faults proc2-crash-recover -fault-digest",
			print: func(ctx context.Context, w io.Writer) error {
				return faultDigests(ctx, w, "proc2-crash-recover", false)
			}},
		{file: "fault-kitchen-sink.digest", regen: "-faults kitchen-sink -fault-digest",
			print: func(ctx context.Context, w io.Writer) error {
				return faultDigests(ctx, w, "kitchen-sink", false)
			}},
		{file: "workload-large128.digest", regen: "-workload large128", slow: true,
			print: func(ctx context.Context, w io.Writer) error { return largeDigests(ctx, w, "large128") }},
		{file: "workload-large1024.digest", regen: "-workload large1024", slow: true,
			print: func(ctx context.Context, w io.Writer) error { return largeDigests(ctx, w, "large1024") }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("LARGE workload digests are skipped under -short and -race")
			}
			path := filepath.Join("..", "..", "scripts", "golden", tc.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.print(context.Background(), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("digests moved.\n--- scripts/golden/%s\n%s+++ this tree\n%s"+
					"If intentional, regenerate with:\n  go run ./cmd/euconsim %s > scripts/golden/%s",
					tc.file, want, got.Bytes(), tc.regen, tc.file)
			}
		})
	}
}

// quoteFence opens an EXPERIMENTS.md block that quotes euconsim output; the
// rest of the fence line is the experiment ID.
const quoteFence = "```euconsim -exp "

// TestExperimentsQuotes regenerates every EXPERIMENTS.md block fenced as
// quoteFence + <id> from the registry and requires it byte for byte, so a
// number the document quotes is a number euconsim prints. When a move is
// intended, paste the new output over the block (the failure names the
// command).
func TestExperimentsQuotes(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var ids, bodies []string
	var body *strings.Builder
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		switch {
		case body == nil && strings.HasPrefix(line, quoteFence):
			ids = append(ids, strings.TrimSpace(strings.TrimPrefix(line, quoteFence)))
			body = new(strings.Builder)
		case body != nil && strings.TrimSpace(line) == "```":
			bodies = append(bodies, body.String())
			body = nil
		case body != nil:
			body.WriteString(line)
		}
	}
	if len(ids) == 0 || len(bodies) != len(ids) {
		t.Fatalf("EXPERIMENTS.md: %d quote fences, %d closed", len(ids), len(bodies))
	}
	for i, id := range ids {
		t.Run(id, func(t *testing.T) {
			e, ok := experiments.Lookup(id)
			if !ok {
				t.Fatalf("EXPERIMENTS.md quotes unknown experiment %q", id)
			}
			var got strings.Builder
			if _, err := e.Run(context.Background(), &got); err != nil {
				t.Fatal(err)
			}
			if got.String() != bodies[i] {
				t.Fatalf("EXPERIMENTS.md's %s block is stale.\n--- EXPERIMENTS.md\n%s+++ this tree\n%s"+
					"Replace the block's body with the output of:\n  go run ./cmd/euconsim -exp %s",
					id, bodies[i], got.String(), id)
			}
		})
	}
}
