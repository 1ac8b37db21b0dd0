//go:build race

package experiments

// raceEnabled skips TestCentralizedLarge128Runs: the race detector slows
// the run several-fold, so its wall budget would time the detector.
const raceEnabled = true
