//go:build race

package main

// raceEnabled skips the LARGE golden digests: the race detector slows them
// to minutes, and scripts/check.sh runs TestGoldenDigests once more without
// it.
const raceEnabled = true
