package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15 (2 tables + stability + 7 figures + 5 extensions)", len(all))
	}
	seen := make(map[string]bool, len(all))
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("fig4"); !ok {
		t.Error("Lookup(fig4) failed")
	}
	if _, ok := Lookup("ext-deucon"); !ok {
		t.Error("Lookup(ext-deucon) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("IDs() returned %d entries", len(ids))
	}
}

func TestTableExperimentsOutput(t *testing.T) {
	var sb strings.Builder
	e, _ := Lookup("table1")
	if _, err := e.Run(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T11", "T21", "T22", "T31", "35", "45", "700", "900"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	e, _ = Lookup("table2")
	if _, err := e.Run(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"SIMPLE", "MEDIUM", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestStabilityExperimentOutput(t *testing.T) {
	var sb strings.Builder
	e, _ := Lookup("stability")
	if _, err := e.Run(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "critical uniform gain") {
		t.Fatalf("stability output: %s", sb.String())
	}
}

func TestControllerKindString(t *testing.T) {
	if KindEUCON.String() != "EUCON" || KindOPEN.String() != "OPEN" || KindNone.String() != "NONE" {
		t.Error("ControllerKind.String mismatch")
	}
	if got := ControllerKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestDynamicETFSchedule(t *testing.T) {
	sched := DynamicETF()
	tests := []struct {
		t    float64
		want float64
	}{
		{0, 0.5},
		{50 * workload.SamplingPeriod, 0.5},
		{100 * workload.SamplingPeriod, 0.9},
		{150 * workload.SamplingPeriod, 0.9},
		{250 * workload.SamplingPeriod, 0.33},
	}
	for _, tc := range tests {
		if got := sched.At(tc.t); got != tc.want {
			t.Errorf("etf(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	// End-to-end: every registered experiment (paper artifacts and
	// extensions) must run and emit data, and exactly the single-trace
	// artifacts return the trace they printed. This regenerates the full
	// evaluation, so it is skipped in -short mode.
	if testing.Short() {
		t.Skip("full experiment regeneration skipped in -short mode")
	}
	traced := map[string]bool{"fig3a": true, "fig3b": true, "fig6": true, "fig7": true, "fig8": true, "ext-deucon": true}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			tr, err := e.Run(context.Background(), &sb)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if (tr != nil) != traced[e.ID] {
				t.Errorf("%s returned a trace: %v, want %v", e.ID, tr != nil, traced[e.ID])
			}
			if tr != nil && len(tr.Utilization) != DefaultPeriods {
				t.Errorf("%s trace has %d periods, want %d", e.ID, len(tr.Utilization), DefaultPeriods)
			}
		})
	}
}

// TestCentralizedLarge128Runs runs centralized EUCON on LARGE-128 (640
// tasks) at etf 1 for 2 periods and holds it to a 10-s wall budget. Each
// overloaded period's active-set solve starts at the smallest feasible step
// toward the R_min corner; started at the corner itself, these 2 periods
// took 74.0 s on a 2-core box.
func TestCentralizedLarge128Runs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("LARGE-128 centralized run skipped under -short and -race")
	}
	begin := time.Now()
	tr, err := Run(context.Background(), Spec{Workload: WorkloadLarge128, Controller: KindEUCON, Periods: 2})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(begin)
	t.Logf("2 periods of centralized LARGE-128 at etf 1 in %v", wall)
	if len(tr.Utilization) != 2 {
		t.Fatalf("%d periods traced, want 2", len(tr.Utilization))
	}
	if wall > 10*time.Second {
		t.Fatalf("2 periods took %v, over the 10-s budget", wall)
	}
}
