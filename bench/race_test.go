//go:build race

package main

// raceEnabled relaxes the smoke pass's time limit: the race detector slows
// the solver several times over.
const raceEnabled = true
