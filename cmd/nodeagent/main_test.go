package main

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/agent"
)

// TestDefaultFleetSeedsDiffer: agents started with the default -seed draw
// distinct noise seeds, one per processor.
func TestDefaultFleetSeedsDiffer(t *testing.T) {
	seen := make(map[int64]int)
	for p := 0; p < 64; p++ {
		s := agent.NodeSeed(defaultSeed, p)
		if q, dup := seen[s]; dup {
			t.Fatalf("processors %d and %d share noise seed %d under the default flags", q, p, s)
		}
		seen[s] = p
	}
}
