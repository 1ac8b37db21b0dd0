package mpc_test

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// feasTol is the solver's feasibility and activity tolerance: a start may
// violate a row by this much, and a row this close to its bound seeds the
// working set.
const feasTol = 1e-9

// maxViolation is the largest amount by which z violates a·z ≤ b (0 when
// it satisfies every row), the measure the controller and the solver use.
func maxViolation(a *mat.Dense, b, z []float64) float64 {
	var v float64
	for i := 0; i < a.Rows(); i++ {
		v = math.Max(v, mat.Dot(a.RowView(i), z)-b[i])
	}
	return v
}

// startShape is one controller FuzzStartPoint draws inputs for.
type startShape struct {
	sys  *task.System
	cfg  core.Config
	ctrl *mpc.Controller
}

func startShapes(f *testing.F) []startShape {
	f.Helper()
	large, err := workload.Large(8)
	if err != nil {
		f.Fatal(err)
	}
	shapes := []startShape{
		{sys: workload.Simple(), cfg: workload.SimpleController()},
		{sys: workload.Medium(), cfg: workload.MediumController()},
		{sys: large, cfg: workload.LargeController()},
	}
	for i := range shapes {
		s := &shapes[i]
		rmin, rmax := s.sys.RateBounds()
		s.ctrl, err = mpc.New(s.sys.AllocationMatrix(), s.sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
			PredictionHorizon: s.cfg.PredictionHorizon,
			ControlHorizon:    s.cfg.ControlHorizon,
			TrefOverTs:        s.cfg.TrefOverTs,
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	return shapes
}

// inputCursor reads values in [0, 1] from fuzz data, two big-endian bytes
// each, cycling through data (every value 0.5 when data is too short).
type inputCursor struct {
	data []byte
	k    int
}

func (c *inputCursor) next() float64 {
	if len(c.data) < 2 {
		return 0.5
	}
	v := binary.BigEndian.Uint16(c.data[c.k%(len(c.data)-1):])
	c.k += 2
	return float64(v) / math.MaxUint16
}

// input reads a shape's measurements and applied rates from c: u in
// [0, umax], and rates across the rate box and a tenth of its width either
// side of it.
func (s startShape) input(c *inputCursor, umax float64) (u, rates []float64) {
	u = make([]float64, s.sys.Processors)
	for i := range u {
		u[i] = umax * c.next()
	}
	rmin, rmax := s.sys.RateBounds()
	rates = make([]float64, len(rmin))
	for j := range rates {
		rates[j] = rmin[j] + (rmax[j]-rmin[j])*(1.2*c.next()-0.1)
	}
	return u, rates
}

// encodeInput is input's inverse, for building seeds from readable
// values.
func (s startShape) encodeInput(u, rates []float64, umax float64) []byte {
	rmin, rmax := s.sys.RateBounds()
	var data []byte
	put := func(frac float64) {
		data = binary.BigEndian.AppendUint16(data, uint16(math.Round(math.Max(0, math.Min(1, frac))*math.MaxUint16)))
	}
	for _, v := range u {
		put(v / umax)
	}
	for j, r := range rates {
		put(((r-rmin[j])/(rmax[j]-rmin[j]) + 0.1) / 1.2)
	}
	return data
}

// startInput decodes data into a shape's measurements, u in [0, 2], and
// applied rates (see input).
func (s startShape) startInput(data []byte) (u, rates []float64) {
	return s.input(&inputCursor{data: data}, 2)
}

// encodeStart is startInput's inverse.
func (s startShape) encodeStart(u, rates []float64) []byte { return s.encodeInput(u, rates, 2) }

// FuzzStartPoint checks the iterative solve's analytic start on SIMPLE,
// MEDIUM and LARGE-8 over arbitrary measurements and rates. Δr = 0 when it
// is feasible; otherwise, when the R_min corner c is feasible, a point
// t*·c with t* in (0, 1] that satisfies every constraint and sits on at
// least one row violated at Δr = 0; and the relaxed rate-box variant
// exactly when even the corner is infeasible. The seed corpus runs with the
// ordinary tests; `make fuzz-mpc` fuzzes it for 30 s.
func FuzzStartPoint(f *testing.F) {
	shapes := startShapes(f)
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
		over := scaled(b, 1)
		over[0] += 0.1
		f.Add(uint8(i), s.encodeStart(scaled(b, 0.9), init))               // under the set points: Δr = 0
		f.Add(uint8(i), s.encodeStart(over, init))                         // one processor over: t*·c
		f.Add(uint8(i), s.encodeStart(scaled(b, 1.05), init))              // all over, by a little
		f.Add(uint8(i), s.encodeStart(scaled(b, 2.4), rmin))               // over at R_min: relaxed
		f.Add(uint8(i), s.encodeStart(scaled(b, 0.5), scaled(rmax, 1.05))) // above the box
		f.Add(uint8(i), s.encodeStart(scaled(b, 1.2), scaled(rmin, 0.98))) // below the box and over
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		s := shapes[int(shape)%len(shapes)]
		u, rates := s.startInput(data)
		cmat, _, aFull, bFull := s.ctrl.NominalProblem()
		z0 := make([]float64, cmat.Cols())
		a, b, relaxed := s.ctrl.StartFor(z0, u, rates)
		zero := make([]float64, len(z0))
		if maxViolation(aFull, bFull, zero) <= feasTol {
			if relaxed || a != aFull || !sameBits(z0, zero) {
				t.Fatalf("Δr = 0 is feasible but the start is %v (relaxed %v)", z0, relaxed)
			}
			return
		}
		rmin, _ := s.sys.RateBounds()
		corner := make([]float64, len(z0))
		for j := range rmin {
			corner[j] = rmin[j] - rates[j]
		}
		if infeasible := maxViolation(aFull, bFull, corner) > feasTol; relaxed != infeasible {
			t.Fatalf("relaxed %v, but the corner's feasibility says %v", relaxed, infeasible)
		}
		if v := maxViolation(a, b, z0); !(v <= feasTol) {
			t.Fatalf("the start violates its constraint variant by %g (relaxed %v)", v, relaxed)
		}
		if relaxed {
			return
		}
		// z0 = t*·c: recover t* from the corner's largest element.
		big := 0
		for j := range corner {
			if math.Abs(corner[j]) > math.Abs(corner[big]) {
				big = j
			}
		}
		ts := z0[big] / corner[big]
		if !(ts > 0 && ts <= 1) {
			t.Fatalf("t* = %g, want it in (0, 1]", ts)
		}
		for j := range z0 {
			if math.Abs(z0[j]-ts*corner[j]) > 1e-12*math.Abs(corner[j]) {
				t.Fatalf("z0[%d] = %g is not t*·c = %g·%g", j, z0[j], ts, corner[j])
			}
		}
		tight := false
		for i, bi := range bFull {
			if -bi > feasTol && math.Abs(mat.Dot(aFull.RowView(i), z0)-bi) <= feasTol {
				tight = true
				break
			}
		}
		if !tight {
			t.Fatalf("no row violated at Δr = 0 is tight at t*·c (t* = %g)", ts)
		}
	})
}

// TestStartStopsAtTheCorner covers the one input where t* is clamped:
// every processor is over its set point, and the R_min corner leaves
// processor 0 above its set point by 5e-10, inside the solver's 1e-9
// feasibility tolerance. The corner is then feasible, but its row's ratio
// bᵢ/(aᵢ·c) exceeds 1, and t*·c would step past the corner and out of the
// rate box (by the ratio's excess times each |cⱼ|, here about 1e-11). The
// start must be the corner itself, and the step a nominal solve.
func TestStartStopsAtTheCorner(t *testing.T) {
	sys, cfg := workload.Simple(), workload.SimpleController()
	rmin, rmax := sys.RateBounds()
	ctrl, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: cfg.PredictionHorizon,
		ControlHorizon:    cfg.ControlHorizon,
		TrefOverTs:        cfg.TrefOverTs,
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := sys.InitialRates()
	corner := make([]float64, len(rates))
	for j := range rates {
		corner[j] = rmin[j] - rates[j]
	}
	// u + F·c is the utilization the corner predicts.
	fc := sys.AllocationMatrix().MulVec(corner)
	u := make([]float64, sys.Processors)
	for i, b := range sys.DefaultSetPoints() {
		u[i] = b - fc[i] - 0.05
	}
	u[0] = sys.DefaultSetPoints()[0] - fc[0] + 5e-10
	cmat, _, _, _ := ctrl.NominalProblem()
	z0 := make([]float64, cmat.Cols())
	a, b, relaxed := ctrl.StartFor(z0, u, rates)
	if relaxed {
		t.Fatal("the corner is feasible within 1e-9, but the start relaxed the output constraints")
	}
	if !sameBits(z0[:len(corner)], corner) {
		t.Fatalf("start %v, want the corner %v", z0[:len(corner)], corner)
	}
	if v := maxViolation(a, b, z0); !(v <= feasTol) {
		t.Fatalf("the start violates its constraints by %g", v)
	}
	res, err := ctrl.Step(u, rates)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mpc.SolveOK {
		t.Fatalf("outcome %v, want a nominal solve", res.Outcome)
	}
}
