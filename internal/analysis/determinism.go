package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// determinismScope lists the module-relative packages whose code must be a
// deterministic function of its configuration: the simulator, every
// controller, and the experiment engine that hashes their outputs into
// golden sweep digests.
var determinismScope = []string{
	"internal/sim",
	"internal/core",
	"internal/deucon",
	"internal/mpc",
	"internal/experiments",
	"internal/fault",
	"internal/chaos",
	// The structured linear-algebra layer: a fill-reducing ordering or
	// factorization that depends on map iteration order would silently
	// de-synchronize every digest built on it.
	"internal/mat",
	"internal/qp",
	// Named workloads (LARGE-128/LARGE-1024) are committed as golden
	// digests, so their generation must be a pure function of the seed.
	"internal/workload",
	// The explicit-mode types. The package declares no function now; it
	// stays in scope, with its fixture, until nothing names it.
	"internal/empc",
	// The distributed runtime layers: protocol framing and the
	// server/agent loops must replay identically given the same
	// message trace. Operational wall-clock reads (I/O deadlines) carry
	// //eucon:wallclock-ok.
	"internal/lane",
	"internal/agent",
}

// runDeterminism flags the three classic determinism leaks in the scoped
// packages:
//
//   - ranging over a map (iteration order is randomized per run) unless
//     the statement or its enclosing function is annotated
//     //eucon:order-independent, which asserts the loop body is
//     commutative or the keys are consumed order-insensitively;
//   - time.Now, which couples results to the wall clock;
//   - package-level math/rand functions, which draw from the shared
//     globally-seeded source (rand.New/rand.NewSource with an explicit
//     seed remain allowed — that is how Config.Seed works).
func runDeterminism(p *pass) {
	if !inScope(p.pkg.Rel, determinismScope) {
		return
	}
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			funcAllowed := p.dirs.funcHas(fd, dirOrderIndependent)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if funcAllowed || p.dirs.lineHas(rs.Pos(), dirOrderIndependent) {
					return true
				}
				p.reportf(rs.Pos(),
					"range over map %s iterates in randomized order; sort the keys first or annotate //eucon:order-independent with a justification",
					types.TypeString(t, types.RelativeTo(p.pkg.Types)))
				return true
			})
		}
	}
	// Banned identifiers are found through the use map so references that
	// never syntactically look like calls (method values, var initializers)
	// are caught too. Positions are collected and sorted because map
	// iteration order is, fittingly, nondeterministic.
	type finding struct {
		id  *ast.Ident
		msg string
	}
	var found []finding
	for id, obj := range p.pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" && !p.dirs.lineHas(id.Pos(), dirWallclockOK) {
				found = append(found, finding{id,
					"time.Now couples simulation results to the wall clock; derive time from the simulated clock or configuration, or annotate an operational read //eucon:wallclock-ok"})
			}
		case "math/rand", "math/rand/v2":
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				continue // methods on an explicitly seeded *rand.Rand are fine
			}
			if fn.Name() == "New" || fn.Name() == "NewSource" {
				continue // constructing an explicitly seeded source
			}
			found = append(found, finding{id,
				"global math/rand draws from the shared unseeded source; use a *rand.Rand seeded from Config.Seed"})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id.Pos() < found[j].id.Pos() })
	for _, f := range found {
		p.reportf(f.id.Pos(), "%s", f.msg)
	}
}
