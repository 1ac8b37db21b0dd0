package trace

import (
	"encoding/csv"
	"strings"
	"testing"

	"github.com/rtsyslab/eucon/internal/sim"
)

func sampleTrace() *sim.Trace {
	return &sim.Trace{
		Utilization: [][]float64{{0.5, 0.6}, {0.55, 0.65}},
		Rates:       [][]float64{{0.01, 0.02}, {0.011, 0.021}},
		Periods: []sim.PeriodStats{
			{Released: 10, Completed: 10},
			{Released: 12, Completed: 10, SubtaskMisses: 2},
		},
	}
}

func TestWriteUtilizationCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteUtilizationCSV(&sb, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(rows))
	}
	if rows[0][1] != "u_p1" || rows[0][2] != "u_p2" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "1" || rows[1][1] != "0.500000" {
		t.Fatalf("row 1 = %v", rows[1])
	}
}

func TestWriteRatesCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteRatesCSV(&sb, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][1] != "r_t1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWriteMissRatioCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteMissRatioCSV(&sb, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[2][3] != "0.200000" {
		t.Fatalf("miss ratio cell = %q, want 0.200000", rows[2][3])
	}
}

func TestEmptyTrace(t *testing.T) {
	empty := &sim.Trace{Controller: "NONE"}
	var sb strings.Builder
	if err := WriteUtilizationCSV(&sb, empty); err != nil {
		t.Fatal(err)
	}
	if err := WriteRatesCSV(&sb, empty); err != nil {
		t.Fatal(err)
	}
	if err := WriteMissRatioCSV(&sb, empty); err != nil {
		t.Fatal(err)
	}
}
