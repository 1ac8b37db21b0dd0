// Package trace exports simulation traces as CSV so paper figures can be
// regenerated with external plotting tools (gnuplot, matplotlib); it backs
// euconsim -csv.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/rtsyslab/eucon/internal/sim"
)

// WriteUtilizationCSV writes one row per sampling period:
// period, u(P1), …, u(Pn).
func WriteUtilizationCSV(w io.Writer, tr *sim.Trace) error {
	cw := csv.NewWriter(w)
	if len(tr.Utilization) == 0 {
		cw.Flush()
		return cw.Error()
	}
	header := []string{"period"}
	for p := range tr.Utilization[0] {
		header = append(header, fmt.Sprintf("u_p%d", p+1))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for k, u := range tr.Utilization {
		row := make([]string, 0, len(u)+1)
		row = append(row, strconv.Itoa(k+1))
		for _, v := range u {
			row = append(row, strconv.FormatFloat(v, 'f', 6, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row %d: %w", k, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRatesCSV writes one row per sampling period:
// period, r(T1), …, r(Tm).
func WriteRatesCSV(w io.Writer, tr *sim.Trace) error {
	cw := csv.NewWriter(w)
	if len(tr.Rates) == 0 {
		cw.Flush()
		return cw.Error()
	}
	header := []string{"period"}
	for i := range tr.Rates[0] {
		header = append(header, fmt.Sprintf("r_t%d", i+1))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for k, r := range tr.Rates {
		row := make([]string, 0, len(r)+1)
		row = append(row, strconv.Itoa(k+1))
		for _, v := range r {
			row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row %d: %w", k, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMissRatioCSV writes one row per sampling period:
// period, completed, misses, miss_ratio.
func WriteMissRatioCSV(w io.Writer, tr *sim.Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"period", "completed", "misses", "miss_ratio"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for k, ps := range tr.Periods {
		row := []string{
			strconv.Itoa(k + 1),
			strconv.Itoa(ps.Completed),
			strconv.Itoa(ps.SubtaskMisses),
			strconv.FormatFloat(ps.MissRatio(), 'f', 6, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row %d: %w", k, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
