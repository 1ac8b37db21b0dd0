// Package empc holds the two types that name the controller's explicit
// mode, which is a counter, not a second solver. With the mode on,
// internal/mpc counts each step that qp.LSI.SolveInteriorTo resolves (the
// interior critical region of the explicit law: no rate bound or output
// constraint active) as a hit and every other step as a miss. The rates
// are the same with the mode on or off.
package empc

// Options configures mpc.Controller.CompileExplicit. It has no fields: the
// interior region needs no enumeration.
type Options struct{}

// Report describes what CompileExplicit switched on.
type Report struct {
	// Regions is how many critical regions the hit counter recognizes:
	// always 1, the interior one.
	Regions int
}
