package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// chainRoots pins the entry points of the runtime-gated allocation-free
// hot paths: the simulator's steady-state event handlers (held at 0
// allocs/op by internal/sim's TestSteadyStateEventLoopAllocFree) and the
// localized DEUCON period (by the root package's
// TestSteadyStateAllocationFree). The noalloc analyzer requires
// each root to exist and carry //eucon:noalloc; the interprocedural proof
// then covers everything the roots reach, so the runtime allocation gate
// has a static counterpart.
var chainRoots = []struct {
	pkgRel string
	fn     string // manifest-style name (Recv.Func)
	gate   string // the runtime test that measures it
}{
	{"internal/sim", "Simulator.handleRelease", "TestSteadyStateEventLoopAllocFree"},
	{"internal/sim", "Simulator.handleCompletion", "TestSteadyStateEventLoopAllocFree"},
	{"internal/sim", "Simulator.handleSampling", "TestSteadyStateEventLoopAllocFree"},
	{"internal/deucon", "Controller.Step", "TestSteadyStateAllocationFree"},
}

// checkChainRoots verifies the declared chain roots of the analyzed
// package exist and are annotated. A rename or annotation deletion on a
// root is a finding even before any proof runs.
func checkChainRoots(p *pass) {
	if strings.Contains(p.pkg.Dir, "testdata") {
		return
	}
	for _, root := range chainRoots {
		if root.pkgRel != p.pkg.Rel {
			continue
		}
		var decl *ast.FuncDecl
		for _, f := range p.pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && manifestFuncName(fd) == root.fn {
					decl = fd
				}
			}
		}
		if decl == nil {
			p.reportf(p.pkg.Files[0].Package,
				"allocation-guarded chain root %s (measured by %s) was not found in %s; update chainRoots in internal/analysis/chains.go if it moved",
				root.fn, root.gate, p.pkg.Rel)
			continue
		}
		fn, ok := p.pkg.Info.Defs[decl.Name].(*types.Func)
		if !ok || !p.prog.isAnnotated(fn) {
			p.reportf(decl.Name.Pos(),
				"allocation-guarded chain root %s (measured by %s) must be annotated //eucon:noalloc",
				root.fn, root.gate)
		}
	}
}

// ChainFunctions returns the FullNames of every //eucon:noalloc function
// reachable from the chain roots through static calls and resolved
// interface dispatch: the annotation set that guards the steady-state
// benchmarks. Exported for the deletion-detection test, which suppresses
// each member in turn and asserts the suite reports the loss.
func ChainFunctions(pkgs []*Package) []string {
	prog := newProgram(pkgs, Options{})
	byName := make(map[string]*types.Func)
	for fn, site := range prog.decls {
		if strings.Contains(site.pkg.Dir, "testdata") {
			continue
		}
		byName[site.pkg.Rel+" "+manifestFuncName(site.decl)] = fn
	}
	seen := make(map[*types.Func]bool)
	var queue []*types.Func
	add := func(fn *types.Func) {
		if fn != nil && prog.isAnnotated(fn) && !seen[fn] {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, root := range chainRoots {
		add(byName[root.pkgRel+" "+root.fn])
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		site := prog.decls[fn]
		if site.decl.Body == nil {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := calleeObject(site.pkg.Info, call).(*types.Func)
			if !ok {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && isInterface(sig.Recv().Type()) {
				for _, t := range prog.interfaceTargets(callee) {
					add(t)
				}
				return true
			}
			add(callee)
			return true
		})
	}
	names := make([]string, 0, len(seen))
	for fn := range seen {
		names = append(names, fn.FullName())
	}
	sort.Strings(names)
	return names
}
