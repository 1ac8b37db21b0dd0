package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestExplicitRunBitIdentical pins the explicit-MPC contract at the
// experiment layer: the same Spec with Explicit on and off produces
// bit-identical traces — an attached law is bookkeeping on the one step
// path, not a second solver — while the Stats record one lookup per
// period. That the interior solve both runs take equals the iterative one
// is mpc's TestInteriorSolveMatchesIterativeBitwise.
func TestExplicitRunBitIdentical(t *testing.T) {
	for _, wl := range []WorkloadKind{WorkloadSimple, WorkloadMedium} {
		base := Spec{Workload: wl, Periods: 120, Seed: DefaultSeed}
		ref, err := Run(context.Background(), base)
		if err != nil {
			t.Fatalf("%v: %v", wl, err)
		}
		exp := base
		exp.Explicit = true
		got, err := Run(context.Background(), exp)
		if err != nil {
			t.Fatalf("%v explicit: %v", wl, err)
		}
		if !reflect.DeepEqual(got.Utilization, ref.Utilization) {
			t.Errorf("%v: utilization series differs with the law attached", wl)
		}
		if !reflect.DeepEqual(got.Rates, ref.Rates) {
			t.Errorf("%v: rate series differs with the law attached", wl)
		}
		if ref.Stats.ExplicitHits != 0 || ref.Stats.ExplicitMisses != 0 {
			t.Errorf("%v: run without a law recorded explicit lookups (%d/%d)",
				wl, ref.Stats.ExplicitHits, ref.Stats.ExplicitMisses)
		}
		if total := got.Stats.ExplicitHits + got.Stats.ExplicitMisses; total != exp.Periods {
			t.Errorf("%v: explicit lookups %d (hits %d + misses %d), want one per period = %d",
				wl, total, got.Stats.ExplicitHits, got.Stats.ExplicitMisses, exp.Periods)
		}
		t.Logf("%v: explicit hits=%d misses=%d", wl, got.Stats.ExplicitHits, got.Stats.ExplicitMisses)
	}
}

// TestExplicitIgnoredByNonMPCKinds pins that Spec.Explicit is a no-op for
// controller kinds without an MPC core instead of an error.
func TestExplicitIgnoredByNonMPCKinds(t *testing.T) {
	for _, kind := range []ControllerKind{KindOPEN, KindNone, KindDEUCON, KindPID} {
		if _, err := Run(context.Background(), Spec{
			Workload: WorkloadSimple, Controller: kind, Periods: 10, Explicit: true,
		}); err != nil {
			t.Errorf("%v with Explicit: %v", kind, err)
		}
	}
}

// TestExplicitSweepGoldenDigests is the acceptance criterion for the
// explicit control law: the Figure 4 and Figure 5 sweep digests with
// Explicit on must equal the ones scripts/golden/sweep-fig4-fig5.digest
// pins for the sweeps without it.
func TestExplicitSweepGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-scale sweeps; skipped in -short")
	}
	want := sweepGoldens(t)
	for _, g := range []struct {
		name     string
		workload WorkloadKind
		etfs     []float64
	}{
		{"fig4", WorkloadSimple, Fig4ETFs()},
		{"fig5", WorkloadMedium, Fig5ETFs()},
	} {
		pts, err := SweepParallel(context.Background(), Spec{
			Workload: g.workload,
			Seed:     DefaultSeed,
			Explicit: true,
		}, g.etfs)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if d := sweepDigest(pts); want[g.name] == "" || d != want[g.name] {
			t.Errorf("%s explicit digest %s, want golden %q", g.name, d, want[g.name])
		}
	}
}
