package mpc_test

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/qp"
)

// stepFuzzUMax bounds the fuzzed measurements: far past saturation, so the
// relaxed variant and t*·c starts on every workload are in reach.
const stepFuzzUMax = 10

// FuzzStepTo drives the controller through a warm-chained run of one to
// four StepTo calls on SIMPLE, MEDIUM or LARGE-8 (shape), each with u in
// [0, 10]ⁿ and rates inside the rate box or up to a tenth of its width
// outside it; bit j+2 of chain hands step j+1 the previous step's NewRates
// instead of fresh rates, closing the loop the way the plant does. The
// controller is Reset first, and its move memory, warm-start set and
// constraint variant then carry from step to step.
//
// The inputs are finite, so no step may hold: SolveHeld now means a
// solver error. Every step must also certify to 1e-8 (the scaled KKT
// certificate of TestRecordedStepsCertify): an interior step with λ = 0,
// an iterative one with the solver's multipliers against the constraint
// variant it solved. The seed corpus runs with the ordinary tests;
// `make fuzz-mpc` fuzzes it for 30 s.
func FuzzStepTo(f *testing.F) {
	shapes := startShapes(f)
	type checker struct {
		h     *mat.Dense
		f     func(d []float64) []float64
		probe *qp.LSI
		xi    []float64
		zero  []float64
		out   *mpc.StepResult
	}
	checks := make([]checker, len(shapes))
	for i, s := range shapes {
		cmat, _, a, _ := s.ctrl.NominalProblem()
		h, lsiF := lsiForm(cmat)
		probe, err := qp.NewLSI(cmat, qp.Options{})
		if err != nil {
			f.Fatal(err)
		}
		checks[i] = checker{h, lsiF, probe, make([]float64, cmat.Cols()), make([]float64, a.Rows()), s.ctrl.NewStepResult()}
	}
	for i, s := range shapes {
		b := s.sys.DefaultSetPoints()
		init := s.sys.InitialRates()
		rmin, rmax := s.sys.RateBounds()
		scaled := func(v []float64, k float64) []float64 {
			out := make([]float64, len(v))
			for j := range v {
				out[j] = k * v[j]
			}
			return out
		}
		seq := func(steps ...[]byte) []byte {
			var data []byte
			for _, st := range steps {
				data = append(data, st...)
			}
			return data
		}
		enc := func(u, rates []float64) []byte { return s.encodeInput(u, rates, stepFuzzUMax) }
		under, over := enc(scaled(b, 0.9), init), enc(scaled(b, 1.1), init)
		saturated := enc(scaled(b, 12), rmin) // over the set points even at R_min: relaxed
		// One step each: interior, t*·c and relaxed.
		f.Add(uint8(i), uint8(0), under)
		f.Add(uint8(i), uint8(0), over)
		f.Add(uint8(i), uint8(0), saturated)
		// Warm-chained in open loop, then closed from an overload.
		f.Add(uint8(i), uint8(3), seq(over, over, over, over))
		f.Add(uint8(i), uint8(3|0b11100), seq(over, enc(scaled(b, 1.1), nil)))
		// Into the relaxed variant, out of it, and back in closed loop.
		f.Add(uint8(i), uint8(2|0b1000), seq(saturated, under, saturated))
		// Rates above the box, then an overload.
		f.Add(uint8(i), uint8(1), seq(enc(scaled(b, 0.5), scaled(rmax, 1.05)), over))
	}
	f.Fuzz(func(t *testing.T, shape, chain uint8, data []byte) {
		si := int(shape) % len(shapes)
		s, ck := shapes[si], &checks[si]
		s.ctrl.Reset()
		cmat, d, aFull, bFull := s.ctrl.NominalProblem()
		nz := cmat.Cols()
		rmin, rmax := s.sys.RateBounds()
		cur := &inputCursor{data: data}
		var prev []float64
		for step := 0; step <= int(chain)%4; step++ {
			u, rates := s.input(cur, stepFuzzUMax)
			if step > 0 && chain&(1<<(step+1)) != 0 {
				rates = append(rates[:0], prev...)
			}
			if err := s.ctrl.StepTo(ck.out, u, rates); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			out := ck.out
			if out.Outcome == mpc.SolveHeld {
				t.Fatalf("step %d held on finite inputs u = %v, rates = %v: the solve failed", step, u, rates)
			}
			for j, r := range out.NewRates {
				if !(r >= rmin[j] && r <= rmax[j]) {
					t.Fatalf("step %d: NewRates[%d] = %g outside [%g, %g]", step, j, r, rmin[j], rmax[j])
				}
			}
			x, lambda := s.ctrl.LastSolution()
			a, b := aFull, bFull
			if _, interior := ck.probe.SolveInteriorTo(ck.xi, d, aFull, bFull); interior {
				lambda = ck.zero
			} else if out.OutputConstraintsRelaxed {
				a, b = aFull.RowPrefix(2*nz), bFull[:2*nz]
			}
			if len(lambda) != a.Rows() {
				t.Fatalf("step %d: %d multipliers for %d constraint rows", step, len(lambda), a.Rows())
			}
			if c, w := scaledCertificate(ck.h, ck.f(d), a, b, x, lambda); !(w <= 1e-8) {
				t.Fatalf("step %d (%v, %d iterations): scaled certificate %+v exceeds 1e-8", step, out.Outcome, out.SolverIterations, c)
			}
			prev = append(prev[:0], out.NewRates...)
		}
	})
}
