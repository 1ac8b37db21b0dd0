package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
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
