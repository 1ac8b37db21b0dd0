package mpc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rtsyslab/eucon/internal/empc"
	"github.com/rtsyslab/eucon/internal/mat"
)

// TestExplicitMatchesIterativeBitwise drives two identical controllers —
// one in explicit mode, one not — through the same closed-loop trajectory
// with seeded disturbances and requires the rates to agree bit for bit at
// every step. This is the property that keeps the fig4/fig5 sweep digests
// unchanged under Spec.Explicit. Both sides take the one step path (the
// mode is bookkeeping), so this pins "explicit mode changes no bits"; the
// interior solve against the iterative one is
// TestInteriorSolveMatchesIterativeBitwise.
func TestExplicitMatchesIterativeBitwise(t *testing.T) {
	cfg := defaultSimpleConfig()
	iter := simpleController(t, cfg)
	exp := simpleController(t, cfg)
	rep, err := exp.CompileExplicit(empc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regions < 1 {
		t.Fatalf("compile produced %d regions", rep.Regions)
	}
	t.Logf("explicit mode: %d regions", rep.Regions)

	rng := rand.New(rand.NewSource(7))
	f := simpleF()
	u := []float64{0.4, 0.5}
	rates := mat.VecClone(iter.rmin)
	for i := range rates {
		rates[i] *= 4
	}
	ratesIter := mat.VecClone(rates)
	for k := 0; k < 400; k++ {
		ri, err := iter.Step(u, ratesIter)
		if err != nil {
			t.Fatal(err)
		}
		re, err := exp.Step(u, rates)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ri.NewRates {
			if math.Float64bits(ri.NewRates[j]) != math.Float64bits(re.NewRates[j]) {
				t.Fatalf("step %d rate %d: iterative %v vs explicit %v (explicit outcome %v)",
					k, j, ri.NewRates[j], re.NewRates[j], re.Outcome)
			}
			if math.Float64bits(ri.DeltaR[j]) != math.Float64bits(re.DeltaR[j]) {
				t.Fatalf("step %d delta %d: %v vs %v", k, j, ri.DeltaR[j], re.DeltaR[j])
			}
		}
		for j := range ri.PredictedUtil {
			if math.Float64bits(ri.PredictedUtil[j]) != math.Float64bits(re.PredictedUtil[j]) {
				t.Fatalf("step %d predicted util %d: %v vs %v", k, j, ri.PredictedUtil[j], re.PredictedUtil[j])
			}
		}
		// Evolve the shared plant and disturb it; every ~60 steps slam the
		// utilization up so saturated (miss) stretches are exercised too.
		copy(rates, re.NewRates)
		copy(ratesIter, ri.NewRates)
		du := f.MulVec(re.DeltaR)
		for j := range u {
			u[j] += du[j] + 0.02*(rng.Float64()-0.5)
			if k%60 == 59 {
				u[j] = 1.2 + 0.3*rng.Float64()
			}
			u[j] = math.Max(0.05, math.Min(1.8, u[j]))
		}
	}
	hits, misses := exp.ExplicitCounts()
	t.Logf("explicit hits %d, misses %d", hits, misses)
	if hits == 0 {
		t.Fatal("explicit fast path never hit")
	}
	if misses == 0 {
		t.Fatal("trajectory never exercised the fallback path")
	}
}

// TestExplicitFallbackOnOverload pins the miss accounting: a measurement
// far above the set points makes z0 = 0 infeasible, the query leaves the
// interior region, and the iterative ladder must produce the move while
// the miss counters stay truthful.
func TestExplicitFallbackOnOverload(t *testing.T) {
	cfg := defaultSimpleConfig()
	c := simpleController(t, cfg)
	if _, err := c.CompileExplicit(empc.Options{}); err != nil {
		t.Fatal(err)
	}
	rates := mat.VecClone(c.rmax)
	res, err := c.Step([]float64{1.5, 1.6}, rates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == SolveExplicit {
		t.Fatalf("overload step reported outcome %v, want an iterative rung", res.Outcome)
	}
	if got := c.LastExplicitOutcome(); got != SolveExplicitMiss {
		t.Fatalf("LastExplicitOutcome = %v, want SolveExplicitMiss", got)
	}
	hits, misses := c.ExplicitCounts()
	if hits != 0 || misses != 1 {
		t.Fatalf("counts = (%d, %d), want (0, 1)", hits, misses)
	}
	// Recovery: once utilization is back under the set points the fast
	// path resumes.
	if _, err := c.Step([]float64{0.3, 0.3}, res.NewRates); err != nil {
		t.Fatal(err)
	}
	if got := c.LastExplicitOutcome(); got != SolveExplicit {
		t.Fatalf("post-recovery LastExplicitOutcome = %v, want SolveExplicit", got)
	}
	c.Reset()
	hits, misses = c.ExplicitCounts()
	if hits != 0 || misses != 0 {
		t.Fatalf("Reset kept counts (%d, %d)", hits, misses)
	}
}
