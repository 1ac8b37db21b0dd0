package chaos

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/rtsyslab/eucon/internal/fault"
)

// TestGenerateDeterministic pins that a scenario is a pure function of
// (campaign seed, index) and that distinct indices diversify.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 7, DefaultMaxClauses, DefaultPeriods)
	b := Generate(42, 7, DefaultMaxClauses, DefaultPeriods)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, index) produced different scenarios:\n%v\n%v", a.Specs, b.Specs)
	}
	c := Generate(42, 8, DefaultMaxClauses, DefaultPeriods)
	if reflect.DeepEqual(a.Specs, c.Specs) {
		t.Fatalf("indices 7 and 8 generated identical specs: %v", a.Specs)
	}
}

// TestCampaignSmokeClean runs the three CI smoke campaigns — 25 seeded
// storms on SIMPLE, 6 localized storms at 128 processors, and 2 partition
// scenarios against a real 8-agent TCP fleet — and requires zero
// violations and zero guard firings, exactly what `euconfuzz` exits 0 on.
// Every generated clause list must also compile against its campaign's
// shape. The last two skip under -short.
func TestCampaignSmokeClean(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"simple", Options{Seed: 1, Scenarios: 25}},
		{"large128", Options{Campaign: CampaignLarge128, Seed: 1, Scenarios: 6, Periods: 100}},
		{"partition", Options{Campaign: CampaignPartition, Seed: 1, Scenarios: 2, Periods: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.opts.Campaign != CampaignSimple {
				t.Skip("full LARGE-128 simulations or a TCP fleet")
			}
			rep, err := Run(context.Background(), tc.opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !rep.Ok() {
				t.Fatalf("clean campaign reported violations: %+v", rep.Violations)
			}
			if rep.GuardFirings != 0 {
				t.Fatalf("guards fired %d times on a clean campaign", rep.GuardFirings)
			}
		})
	}
}

// TestCampaignExplicitClean re-runs the clean campaign in explicit mode:
// under the same fault storms, each run's trace must be bit-identical to
// the run without it, and its hits + misses must equal the controller
// steps, with zero violations and zero guard firings — the chaos-harness
// acceptance run for explicit mode.
func TestCampaignExplicitClean(t *testing.T) {
	rep, err := Run(context.Background(), Options{Seed: 1, Scenarios: 25, Explicit: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("explicit campaign reported violations: %+v", rep.Violations)
	}
	if rep.GuardFirings != 0 {
		t.Fatalf("guards fired %d times on a clean explicit campaign", rep.GuardFirings)
	}
}

// TestShrinkIsOneMinimal exercises the shrinker against a pure predicate:
// failing iff the clause list contains both a FeedbackDrop and a
// ProcCrash. The minimal reproducer must be exactly those two clauses.
func TestShrinkIsOneMinimal(t *testing.T) {
	specs := []fault.Spec{
		{Kind: fault.ExecStep, Proc: fault.All, Task: fault.All, Sub: fault.All, Magnitude: 1.2},
		{Kind: fault.FeedbackDrop, Proc: fault.All, Start: 40, Stop: 120, Magnitude: 0.2, Seed: 5},
		{Kind: fault.ActuatorDelay, Task: fault.All, Start: 60, Stop: 160, Delay: 2},
		{Kind: fault.ProcCrash, Proc: 1, Start: 100, Stop: 140},
		{Kind: fault.FeedbackQuantize, Proc: 0, Start: 10, Stop: 50, Magnitude: 0.05},
	}
	failing := func(cand []fault.Spec) bool {
		drop, crash := false, false
		for _, sp := range cand {
			drop = drop || sp.Kind == fault.FeedbackDrop
			crash = crash || sp.Kind == fault.ProcCrash
		}
		return drop && crash
	}
	min := Shrink(specs, failing)
	if len(min) != 2 {
		t.Fatalf("minimal reproducer has %d clauses, want 2: %v", len(min), min)
	}
	if !failing(min) {
		t.Fatalf("shrunken scenario no longer fails: %v", min)
	}
	for i := range min {
		cand := append(append([]fault.Spec(nil), min[:i]...), min[i+1:]...)
		if failing(cand) {
			t.Fatalf("result not 1-minimal: removing clause %d still fails", i)
		}
	}
}

// plantedBugSpecs is a compound scenario for the harness self-tests; the
// planted bug arms on its ProcCrash clause.
func plantedBugSpecs() []fault.Spec {
	return []fault.Spec{
		{Kind: fault.ExecStep, Proc: fault.All, Task: fault.All, Sub: fault.All, Magnitude: 1.2},
		{Kind: fault.FeedbackDrop, Proc: fault.All, Start: 40, Stop: 120, Magnitude: 0.2, Seed: 5},
		{Kind: fault.ProcCrash, Proc: 1, Start: 100, Stop: 140},
		{Kind: fault.ActuatorDelay, Task: fault.All, Start: 60, Stop: 160, Delay: 2},
	}
}

// TestPlantedBugContainedByGuards: with the runtime guards enabled, a
// controller bug emitting NaN rates is caught by the rate guard — the
// invariant report names the guard, and the plant's trace stays finite and
// complete (containment worked; the harness still flags the bug).
func TestPlantedBugContainedByGuards(t *testing.T) {
	opts := Options{seedBug: func(sp fault.Spec) bool { return sp.Kind == fault.ProcCrash }}
	problems, stats := Check(context.Background(), plantedBugSpecs(), opts)
	if len(problems) == 0 {
		t.Fatal("planted NaN bug went undetected with guards enabled")
	}
	found := false
	for _, p := range problems {
		if strings.Contains(p, "rate guard fired") {
			found = true
		}
		if strings.Contains(p, "truncated") || strings.Contains(p, "outside") {
			t.Fatalf("guards enabled but the bug escaped into the plant: %s", p)
		}
	}
	if !found {
		t.Fatalf("expected a rate-guard violation, got: %v", problems)
	}
	if stats.guardFirings == 0 {
		t.Fatal("guard firings not counted")
	}
}

// TestShrinkerProducesMinimalReproducer is the acceptance test for the
// shrinking pipeline: the guards are disabled (test build), the planted
// NaN bug escapes into the plant, the harness detects the violation from
// the trace alone, and shrinking yields a reproducer of at most 2 clauses
// that round-trips through the runnable -faults JSON form.
func TestShrinkerProducesMinimalReproducer(t *testing.T) {
	opts := Options{
		DisableGuards: true,
		seedBug:       func(sp fault.Spec) bool { return sp.Kind == fault.ProcCrash },
	}
	ctx := context.Background()
	specs := plantedBugSpecs()

	problems, _ := Check(ctx, specs, opts)
	if len(problems) == 0 {
		t.Fatal("planted NaN bug went undetected with guards disabled")
	}
	failing := func(cand []fault.Spec) bool {
		p, _ := Check(ctx, cand, opts)
		return len(p) > 0
	}
	if failing(nil) {
		t.Fatal("fault-free run fails the invariants; shrinking would be meaningless")
	}
	min := Shrink(specs, failing)
	if len(min) > 2 {
		t.Fatalf("minimal reproducer has %d clauses, want <= 2: %v", len(min), min)
	}
	if !failing(min) {
		t.Fatalf("shrunken scenario no longer fails: %v", min)
	}

	// The reproducer must survive the JSON round trip and still fail.
	js, err := fault.MarshalSpecs(min)
	if err != nil {
		t.Fatalf("marshal reproducer: %v", err)
	}
	back, err := fault.UnmarshalSpecs(js)
	if err != nil {
		t.Fatalf("unmarshal reproducer %s: %v", js, err)
	}
	if !reflect.DeepEqual(back, min) {
		t.Fatalf("reproducer did not round-trip:\n  out: %v\n  back: %v", min, back)
	}
	if !failing(back) {
		t.Fatalf("round-tripped reproducer no longer fails: %s", js)
	}
}

// TestCampaignReportsAndShrinksViolations drives the full Run pipeline
// with the planted bug armed on crash clauses: every scenario whose
// generated clause list contains a ProcCrash must be reported, shrunk (up
// to the budget), and given a runnable reproducer.
func TestCampaignReportsAndShrinksViolations(t *testing.T) {
	opts := Options{
		Seed:      3,
		Scenarios: 40,
		seedBug:   func(sp fault.Spec) bool { return sp.Kind == fault.ProcCrash },
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Ok() {
		t.Fatal("campaign with a planted bug reported no violations; generator produced no crash clauses in 40 scenarios?")
	}
	shrunk := 0
	for _, v := range rep.Violations {
		if v.Minimal == nil {
			continue
		}
		shrunk++
		if len(v.Minimal) > 2 {
			t.Fatalf("scenario %d: minimal reproducer has %d clauses: %v", v.Scenario.Index, len(v.Minimal), v.Minimal)
		}
		if v.ReproJSON == "" {
			t.Fatalf("scenario %d: no reproducer JSON", v.Scenario.Index)
		}
		if _, err := fault.UnmarshalSpecs([]byte(v.ReproJSON)); err != nil {
			t.Fatalf("scenario %d: reproducer JSON does not parse: %v", v.Scenario.Index, err)
		}
	}
	if shrunk == 0 {
		t.Fatal("no violation was shrunk")
	}
}

// TestCheckRecoversPanic pins that a panicking controller becomes a
// reported violation, not a crashed harness.
func TestCheckRecoversPanic(t *testing.T) {
	opts := Options{
		Periods: 100,
		seedBug: func(sp fault.Spec) bool { panic("deliberate harness-test panic") },
	}
	problems, _ := Check(context.Background(), []fault.Spec{{Kind: fault.ProcCrash, Proc: 0, Start: 10, Stop: 20}}, opts)
	if len(problems) == 0 || !strings.Contains(problems[0], "panic") {
		t.Fatalf("panic not converted to a violation: %v", problems)
	}
}
