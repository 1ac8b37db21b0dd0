package main

import "testing"

// TestSmoke is the CI farm smoke: 64 agents over loopback TCP through two
// injected crash/rejoin cycles without a controller restart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("64-agent TCP fleet")
	}
	if code := run([]string{"-smoke"}); code != 0 {
		t.Fatalf("euconfarm -smoke exited %d", code)
	}
}

// TestLossySmoke is the lossy-network smoke: 5% drops, 20 ms delays,
// duplicates and reorders on every lane, drifting clocks and one
// partition/heal cycle. Exit 0 also means no agent failed: an agent error
// fails the run unless an outage killed the agent or the server was
// already shutting down.
func TestLossySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("64-agent TCP fleet under transport faults")
	}
	code := run([]string{"-smoke", "-codec", "binary2", "-interval", "10ms", "-skew", "0.01",
		"-transport-faults", "drop=0.05,delayprob=0.3,delay=20ms,dup=0.01,reorder=0.01,seed=7", "-partitions", "1"})
	if code != 0 {
		t.Fatalf("lossy euconfarm smoke exited %d", code)
	}
}
