package fault

import (
	"math"
	"strings"
	"testing"
)

func testShape() Shape {
	return Shape{
		Procs:          2,
		Tasks:          2,
		SubsPerTask:    []int{2, 1},
		Periods:        20,
		SamplingPeriod: 1000,
	}
}

func TestSpecValidation(t *testing.T) {
	shape := testShape()
	bad := []struct {
		name string
		spec Spec
	}{
		{"negative start", Spec{Kind: ExecStep, Magnitude: 2, Start: -1}},
		{"empty window", Spec{Kind: ExecStep, Magnitude: 2, Start: 5, Stop: 5}},
		{"zero exec factor", Spec{Kind: ExecStep, Magnitude: 0}},
		{"ramp without stop", Spec{Kind: ExecRamp, Magnitude: 2}},
		{"proc out of range", Spec{Kind: ProcCrash, Proc: 2}},
		{"task out of range", Spec{Kind: ActuatorDrop, Task: 7, Magnitude: 0.5}},
		{"sub without task", Spec{Kind: ExecStep, Task: All, Sub: 1, Magnitude: 2}},
		{"sub out of range", Spec{Kind: ExecStep, Task: 1, Sub: 1, Magnitude: 2}},
		{"drop prob > 1", Spec{Kind: FeedbackDrop, Magnitude: 1.5}},
		{"drop prob zero", Spec{Kind: ActuatorDrop, Magnitude: 0}},
		{"delay zero", Spec{Kind: FeedbackDelay}},
		{"negative clamp", Spec{Kind: ActuatorClamp, Magnitude: -0.1}},
		{"unknown kind", Spec{Kind: Kind(99)}},
	}
	for _, c := range bad {
		var e Engine
		if err := e.Compile([]Spec{c.spec}, shape, 1); err == nil {
			t.Errorf("%s: Compile accepted invalid spec %v", c.name, c.spec)
		}
	}

	good := []Spec{
		{Kind: ExecStep, Proc: All, Task: All, Sub: All, Magnitude: 2},
		{Kind: ExecRamp, Task: 0, Sub: 1, Start: 2, Stop: 8, Magnitude: 3},
		{Kind: FeedbackDrop, Proc: 1, Magnitude: 1},
		{Kind: FeedbackDelay, Proc: All, Delay: 3},
		{Kind: FeedbackQuantize, Proc: 0, Magnitude: 0.05},
		{Kind: ActuatorDrop, Task: All, Magnitude: 0.2},
		{Kind: ActuatorDelay, Task: 1, Delay: 1},
		{Kind: ActuatorClamp, Task: 0, Magnitude: 0},
		{Kind: ProcCrash, Proc: All, Start: 3, Stop: 5},
	}
	var e Engine
	if err := e.Compile(good, shape, 1); err != nil {
		t.Fatalf("Compile rejected valid scenario: %v", err)
	}
	if !e.Enabled() {
		t.Fatal("engine not enabled after compiling a non-empty scenario")
	}

	// Every kind landed in its table.
	if c := e.Feedback(5, 1); c.Src != -1 {
		t.Errorf("Feedback(5, P2) = %+v, want dropped (drop wins over the delay)", c)
	}
	if c := e.Feedback(5, 0); c.Src != 2 || c.Quant != 0.05 {
		t.Errorf("Feedback(5, P1) = %+v, want {Src: 2, Quant: 0.05}", c)
	}
	if c := e.Feedback(1, 0); c.Src != -1 {
		t.Errorf("Feedback(1, P1) = %+v, want no sample (delayed before period 0)", c)
	}
	if c := e.Command(4, 0); c.Clamp != 0 || c.Delay != 0 {
		t.Errorf("Command(4, T1) = %+v, want stuck (Clamp 0) and undelayed", c)
	}
	if c := e.Command(4, 1); c.Clamp != -1 || c.Delay != 1 {
		t.Errorf("Command(4, T2) = %+v, want unclamped and delayed by 1", c)
	}
	drops := 0
	for k := 0; k < shape.Periods; k++ {
		for i := 0; i < shape.Tasks; i++ {
			if e.Command(k, i).Drop {
				drops++
			}
		}
	}
	if cells := shape.Periods * shape.Tasks; drops == 0 || drops == cells {
		t.Errorf("actuator drop p=0.2 dropped %d of %d commands", drops, cells)
	}
	for p := 0; p < shape.Procs; p++ {
		if !e.Down(p, 3000) || !e.Down(p, 4999) || e.Down(p, 2999) || e.Down(p, 5000) {
			t.Errorf("P%d: crash window is not [3000, 5000)", p+1)
		}
		if !e.DownPeriod(3, p) || !e.DownPeriod(4, p) || e.DownPeriod(2, p) || e.DownPeriod(5, p) {
			t.Errorf("P%d: crash does not cover exactly periods 3 and 4", p+1)
		}
	}
	if f := e.ExecFactor(1, 1, 0, 1000); f != 2 {
		t.Errorf("ExecFactor outside the ramp = %g, want the step's 2", f)
	}
	if f := e.ExecFactor(0, 0, 1, 5000); f != 4 {
		t.Errorf("ExecFactor halfway up the ramp = %g, want 2·2 = 4", f)
	}
	if f := e.ExecFactor(1, 0, 1, 5000); f != 2 {
		t.Errorf("ExecFactor on P2 = %g, want 2 (the ramp targets P1)", f)
	}
}

func TestIdleEngine(t *testing.T) {
	var e Engine
	if err := e.Compile(nil, Shape{}, 1); err != nil {
		t.Fatalf("Compile(nil) = %v", err)
	}
	if e.Enabled() {
		t.Fatal("empty scenario must leave the engine disabled")
	}
	var nilEngine *Engine
	if nilEngine.Enabled() {
		t.Fatal("nil engine must report disabled")
	}
	if c := e.Feedback(3, 0); c.Src != 3 || c.Quant != 0 {
		t.Errorf("idle Feedback = %+v, want fresh sample", c)
	}
	if c := e.Command(3, 0); c.Drop || c.Delay != 0 || c.Clamp >= 0 {
		t.Errorf("idle Command = %+v, want pass-through", c)
	}
	if e.Down(0, 5000) || e.DownPeriod(3, 0) {
		t.Error("idle engine reports a processor down")
	}
	if f := e.ExecFactor(0, 0, 0, 5000); f != 1 {
		t.Errorf("idle ExecFactor = %g, want 1", f)
	}
}

func TestCompileDeterminismAndReuse(t *testing.T) {
	shape := testShape()
	specs := []Spec{
		{Kind: FeedbackDrop, Proc: All, Magnitude: 0.5, Seed: 7},
		{Kind: ActuatorDrop, Task: All, Magnitude: 0.5, Seed: 9},
	}
	snapshot := func(e *Engine) string {
		var b strings.Builder
		for k := 0; k < shape.Periods; k++ {
			for p := 0; p < shape.Procs; p++ {
				c := e.Feedback(k, p)
				b.WriteString(itoa(c.Src))
				b.WriteByte(' ')
			}
			for i := 0; i < shape.Tasks; i++ {
				if e.Command(k, i).Drop {
					b.WriteByte('D')
				} else {
					b.WriteByte('.')
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	var a, b Engine
	if err := a.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	first := snapshot(&a)
	if first != snapshot(&b) {
		t.Fatal("two fresh engines disagree on the same scenario")
	}

	// Re-compiling the same engine with a different scenario and then the
	// original one must reproduce the original tables exactly.
	if err := a.Compile([]Spec{{Kind: FeedbackDrop, Proc: 0, Magnitude: 1}}, shape, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	if snapshot(&a) != first {
		t.Fatal("engine reuse changed the compiled scenario")
	}

	// A different run seed must yield a different drop pattern (independent
	// replications), while the scenario stays valid.
	if err := b.Compile(specs, shape, 2); err != nil {
		t.Fatal(err)
	}
	if snapshot(&b) == first {
		t.Fatal("run seed does not influence probabilistic injectors")
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-"
	}
	const digits = "0123456789"
	if v < 10 {
		return digits[v : v+1]
	}
	return itoa(v/10) + digits[v%10:v%10+1]
}

func TestFeedbackComposition(t *testing.T) {
	shape := testShape()
	var e Engine
	specs := []Spec{
		{Kind: FeedbackDrop, Proc: 0, Magnitude: 1, Start: 5, Stop: 10},
		{Kind: FeedbackDelay, Proc: All, Delay: 2},
		{Kind: FeedbackQuantize, Proc: 1, Magnitude: 0.05, Start: 3},
	}
	if err := e.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	// Drop (probability 1) wins over the later delay on proc 0 in [5, 10).
	if c := e.Feedback(7, 0); c.Src != -1 {
		t.Errorf("Feedback(7,0).Src = %d, want dropped", c.Src)
	}
	// Outside the drop window the delay applies.
	if c := e.Feedback(12, 0); c.Src != 10 {
		t.Errorf("Feedback(12,0).Src = %d, want 10", c.Src)
	}
	// A delay pointing before the first sample is a miss.
	if c := e.Feedback(1, 1); c.Src != -1 {
		t.Errorf("Feedback(1,1).Src = %d, want -1 (nothing measured yet)", c.Src)
	}
	// Quantization composes with delay on proc 1 from period 3 on.
	if c := e.Feedback(6, 1); c.Src != 4 || c.Quant != 0.05 {
		t.Errorf("Feedback(6,1) = %+v, want delayed and quantized", c)
	}
	// Proc 1 before period 3 is delayed but not quantized.
	if c := e.Feedback(2, 1); c.Src != 0 || c.Quant != 0 {
		t.Errorf("Feedback(2,1) = %+v, want {0 0}", c)
	}
}

func TestActuatorCells(t *testing.T) {
	shape := testShape()
	var e Engine
	specs := []Spec{
		{Kind: ActuatorDelay, Task: 0, Delay: 3, Start: 2, Stop: 8},
		{Kind: ActuatorClamp, Task: 1, Magnitude: 0, Start: 4},
		{Kind: ActuatorDrop, Task: 0, Magnitude: 1, Start: 6, Stop: 7},
	}
	if err := e.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	if c := e.Command(3, 0); c.Delay != 3 || c.Drop {
		t.Errorf("Command(3,0) = %+v, want delay 3", c)
	}
	if c := e.Command(6, 0); !c.Drop {
		t.Errorf("Command(6,0) = %+v, want dropped", c)
	}
	if c := e.Command(5, 1); c.Clamp != 0 {
		t.Errorf("Command(5,1) = %+v, want clamp 0 (stuck)", c)
	}
	if c := e.Command(3, 1); c.Clamp >= 0 {
		t.Errorf("Command(3,1) = %+v, want unbounded", c)
	}
}

func TestExecFactor(t *testing.T) {
	shape := testShape()
	ts := shape.SamplingPeriod
	var e Engine
	specs := []Spec{
		{Kind: ExecStep, Proc: 0, Task: All, Sub: All, Start: 2, Stop: 4, Magnitude: 2},
		{Kind: ExecRamp, Proc: All, Task: 1, Sub: All, Start: 10, Stop: 20, Magnitude: 3},
	}
	if err := e.Compile(specs, shape, 1); err != nil {
		t.Fatal(err)
	}
	if f := e.ExecFactor(0, 0, 0, 1.5*ts); f != 1 {
		t.Errorf("before window: factor %g, want 1", f)
	}
	if f := e.ExecFactor(0, 0, 0, 2*ts); f != 2 {
		t.Errorf("at window start: factor %g, want 2", f)
	}
	if f := e.ExecFactor(0, 0, 0, 4*ts); f != 1 {
		t.Errorf("at window stop: factor %g, want 1 (half-open)", f)
	}
	if f := e.ExecFactor(1, 0, 0, 3*ts); f != 1 {
		t.Errorf("other processor: factor %g, want 1", f)
	}
	// Ramp: halfway through it the factor is 1 + (3-1)*0.5 = 2.
	if f := e.ExecFactor(1, 1, 0, 15*ts); math.Abs(f-2) > 1e-12 {
		t.Errorf("ramp midpoint: factor %g, want 2", f)
	}
	// Overlap (proc 0, task 1, period ~10..): windows compose multiplicatively.
	if err := e.Compile([]Spec{
		{Kind: ExecStep, Proc: All, Task: All, Sub: All, Magnitude: 2},
		{Kind: ExecStep, Proc: All, Task: All, Sub: All, Magnitude: 3},
	}, shape, 1); err != nil {
		t.Fatal(err)
	}
	if f := e.ExecFactor(0, 0, 0, ts); f != 6 {
		t.Errorf("overlapping steps: factor %g, want 6", f)
	}
}

func TestCrashWindows(t *testing.T) {
	shape := testShape()
	ts := shape.SamplingPeriod
	var e Engine
	if err := e.Compile([]Spec{{Kind: ProcCrash, Proc: 1, Start: 3.5, Stop: 6}}, shape, 1); err != nil {
		t.Fatal(err)
	}
	if e.Down(0, 4*ts) {
		t.Error("processor 0 reported down; crash targets processor 1")
	}
	if !e.Down(1, 3.5*ts) || !e.Down(1, 5.9*ts) {
		t.Error("processor 1 not down inside its crash window")
	}
	if e.Down(1, 3.4*ts) || e.Down(1, 6*ts) {
		t.Error("processor 1 down outside its half-open crash window")
	}
	// Period 3 is partially covered ([3.5, 4)), periods 4..5 fully, period 6
	// not at all.
	for k, want := range map[int]bool{2: false, 3: true, 4: true, 5: true, 6: false} {
		if got := e.DownPeriod(k, 1); got != want {
			t.Errorf("DownPeriod(%d, 1) = %v, want %v", k, got, want)
		}
	}
	// Stop <= 0 extends to the end of the run.
	if err := e.Compile([]Spec{{Kind: ProcCrash, Proc: 0, Start: 10}}, shape, 1); err != nil {
		t.Fatal(err)
	}
	if !e.Down(0, float64(shape.Periods)*ts-1) || !e.DownPeriod(shape.Periods-1, 0) {
		t.Error("open-ended crash does not reach the end of the run")
	}
}

func TestRegistry(t *testing.T) {
	shape := Shape{
		Procs:          4,
		Tasks:          6,
		SubsPerTask:    []int{2, 2, 2, 2, 2, 2},
		Periods:        300,
		SamplingPeriod: 1000,
	}
	names := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Title == "" || len(sc.Specs) == 0 {
			t.Errorf("scenario %+v incomplete", sc)
		}
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %s", sc.Name)
		}
		names[sc.Name] = true
		var e Engine
		if err := e.Compile(sc.Specs, shape, 1); err != nil {
			t.Errorf("scenario %s does not compile: %v", sc.Name, err)
		}
		if got, ok := Lookup(sc.Name); !ok || got.Name != sc.Name {
			t.Errorf("Lookup(%s) failed", sc.Name)
		}
	}
	if len(Names()) != len(names) {
		t.Errorf("Names() returned %d entries, want %d", len(Names()), len(names))
	}

	specs, err := Parse("exec-burst-2x, proc2-crash-recover")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Kind != ExecStep || specs[1].Kind != ProcCrash {
		t.Errorf("Parse combined list = %v", specs)
	}
	if _, err := Parse("no-such-scenario"); err == nil {
		t.Error("Parse accepted an unknown scenario name")
	}
	if specs, err := Parse(""); err != nil || specs != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil, nil", specs, err)
	}
}

func TestFormat(t *testing.T) {
	if got := Format(nil); got != "none" {
		t.Errorf("Format(nil) = %q", got)
	}
	specs := []Spec{
		{Kind: ProcCrash, Proc: 1, Start: 100, Stop: 140},
		{Kind: FeedbackDrop, Proc: All, Magnitude: 0.1, Seed: 11},
	}
	got := Format(specs)
	if !strings.Contains(got, "proc-crash") || !strings.Contains(got, "feedback-drop") || !strings.Contains(got, "; ") {
		t.Errorf("Format = %q", got)
	}
	if got != Format(specs) {
		t.Error("Format is not stable")
	}
}
