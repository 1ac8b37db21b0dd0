package core_test

import (
	"context"
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/workload"
)

func mediumCore(t *testing.T) *core.Controller {
	t.Helper()
	c, err := core.New(workload.Medium(), nil, workload.MediumController())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStepAcceptsItsOwnResultAsRates drives one controller the way
// agent.Server does — the slice Step returned is the next Step's rates
// argument, so it aliases the result being written — and a twin on private
// copies. Both must command the same bits over the measurements of the
// MEDIUM dynamic-etf run, an overload burst and a stretch of raw NaN
// samples, which the MPC's non-finite rung holds (callers normally put
// sim.HoldLast in front).
func TestStepAcceptsItsOwnResultAsRates(t *testing.T) {
	tr, err := experiments.Run(context.Background(), experiments.Spec{Workload: experiments.WorkloadMedium, ETF: experiments.DynamicETF(), Seed: experiments.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	us := append([][]float64(nil), tr.Utilization...)
	us = append(us, []float64{1.3, 1.2, 0.5, 0.4}, []float64{4, 4, 4, 4}, []float64{0.9, 0.9, 0.9, 0.9})
	for i := 0; i < 6; i++ { // a raw NaN: the MPC's non-finite rung holds the rates
		us = append(us, []float64{nan, 0.8, 0.8, 0.8})
	}
	us = append(us, []float64{0.8, 0.8, 0.8, 0.8}, []float64{0.82, 0.82, 0.82, 0.82})

	aliased, copied := mediumCore(t), mediumCore(t)
	rates := workload.Medium().InitialRates()
	private := append([]float64(nil), rates...)
	for k, u := range us {
		next, err := aliased.Step(k, u, rates)
		if err != nil {
			t.Fatal(err)
		}
		rates = next
		want, err := copied.Step(k, u, private)
		if err != nil {
			t.Fatal(err)
		}
		copy(private, want)
		for i := range private {
			if math.Float64bits(rates[i]) != math.Float64bits(private[i]) {
				t.Fatalf("period %d task %d: rate %v on the aliased slice, %v on a copy", k, i, rates[i], private[i])
			}
		}
	}
	if a, c := aliased.AntiWindupSyncs(), copied.AntiWindupSyncs(); a != c {
		t.Errorf("anti-windup syncs: %d on the aliased slice, %d on a copy", a, c)
	}
	if _, _, held := aliased.ContainmentCounts(); held == 0 || aliased.RelaxedPeriods() == 0 {
		t.Errorf("held=%d relaxed=%d: the run never left the nominal path", held, aliased.RelaxedPeriods())
	}
}
