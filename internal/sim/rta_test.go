package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/rtsyslab/eucon/internal/task"
)

// responseTimes is exact response-time analysis under preemptive RMS with
// deadline = period, the reference the simulator's scheduler is checked
// against: each job's worst-case response is the fixed point of
//
//	R = C_i + Σ_{j ∈ hp(i)} ⌈R/T_j⌉·C_j,
//
// with priority by period (shorter first, ties by index). A response past
// the period is +Inf. The iterate grows by at least one cost per round and
// is capped at the period, so the loop terminates.
func responseTimes(costs, periods []float64) []float64 {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return periods[order[a]] < periods[order[b]] })
	resp := make([]float64, len(costs))
	for rank, i := range order {
		r := costs[i]
		for {
			next := costs[i]
			for _, h := range order[:rank] {
				next += math.Ceil(r/periods[h]) * costs[h]
			}
			if next > periods[i] {
				r = math.Inf(1)
				break
			}
			if next == r {
				break
			}
			r = next
		}
		resp[i] = r
	}
	return resp
}

func TestResponseTimesTextbook(t *testing.T) {
	// C = (1, 2, 3), T = (4, 6, 12): R₃ iterates 6 → 7 → 9 → 10 → 10.
	if got := responseTimes([]float64{1, 2, 3}, []float64{4, 6, 12}); fmt.Sprint(got) != "[1 3 10]" {
		t.Errorf("R = %v, want [1 3 10]", got)
	}
}

func TestResponseTimesUnschedulable(t *testing.T) {
	// C = (3, 3), T = (4, 6): the lower-priority job never finishes in time.
	if got := responseTimes([]float64{3, 3}, []float64{4, 6}); !math.IsInf(got[1], 1) {
		t.Errorf("R = %v, want +Inf for the starving job", got)
	}
}

// TestRTACrossValidatedBySimulator checks the simulator against exact RTA
// in both directions on one processor with deterministic execution times
// (etf = 1): a task set RTA accepts runs without a subtask miss, and one it
// rejects misses.
func TestRTACrossValidatedBySimulator(t *testing.T) {
	periods := []float64{40, 70, 150}
	for _, tc := range []struct {
		name  string
		costs []float64
		want  bool
	}{
		{"accepted U=0.74", []float64{10, 20, 30}, true},
		{"rejected U=0.99", []float64{20, 25, 20}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := &task.System{Name: "rta-x", Processors: 1}
			schedulable := true
			for i, r := range responseTimes(tc.costs, periods) {
				schedulable = schedulable && r <= periods[i]
				sys.Tasks = append(sys.Tasks, task.Task{
					Name:     fmt.Sprintf("T%d", i+1),
					Subtasks: []task.Subtask{{Processor: 0, EstimatedCost: tc.costs[i]}},
					RateMin:  1e-4, RateMax: 0.05, InitialRate: 1 / periods[i],
				})
			}
			if schedulable != tc.want {
				t.Fatalf("RTA says schedulable = %v, want %v", schedulable, tc.want)
			}
			s, err := New(Config{System: sys, SamplingPeriod: 1000, Periods: 50})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			misses := tr.Stats.SubtaskDeadlineMisses
			t.Logf("%d subtask misses", misses)
			if schedulable != (misses == 0) {
				t.Errorf("RTA schedulable = %v but the simulator booked %d subtask misses", schedulable, misses)
			}
		})
	}
}
