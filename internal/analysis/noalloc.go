package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// noallocSafeBuiltins are builtins that never heap-allocate.
var noallocSafeBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "clear": true,
	"min": true, "max": true, "delete": true,
	"real": true, "imag": true, "complex": true,
}

// runNoalloc checks every //eucon:noalloc-annotated function: the
// steady-state event-loop handlers, flat-heap operations, and pool recycle
// paths whose allocation-freedom the runtime gates
// (TestSteadyStateEventLoopAllocFree and TestSteadyStateAllocationFree at
// 0 allocs/op) measure and this analyzer proves. Inside an annotated function the following are
// diagnosed unless the line carries //eucon:alloc-ok:
//
//   - append, make, and new;
//   - composite literals of slice/map type, addressed composite literals,
//     and closures (struct/array literals stored or returned by value are
//     plain stores and allowed);
//   - string concatenation;
//   - conversions of concrete values to interface types (boxing),
//     explicit or implicit (call arguments, assignments, returns);
//   - calls to functions that cannot be transitively proven
//     allocation-free: the proof engine descends through unannotated
//     module callees (which must be plainly allocation-free — their
//     //eucon:alloc-ok escapes have no owning contract and are not
//     honored) and resolves interface dispatch over every concrete
//     implementor in the load set; only callees outside the analyzed
//     source, dynamic function values, and genuinely allocating chains
//     remain findings.
//
// The pass also reports stale //eucon:alloc-ok escapes (lines where the
// escape no longer suppresses anything), drift between the annotations
// and the committed noalloc manifest, and missing or unannotated
// benchmark-gated chain roots (chains.go).
func runNoalloc(p *pass) {
	consumed := make(map[string]bool)
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !p.prog.isAnnotated(fn) {
				continue
			}
			w := &noallocWalker{
				prog:         p.prog,
				pkg:          p.pkg,
				decl:         fd,
				honorEscapes: true,
				pass:         p,
				consumed:     consumed,
				storeLits:    collectStoreLits(p.pkg.Info, fd.Body),
			}
			ast.Inspect(fd.Body, w.visit)
		}
	}
	reportStaleEscapes(p, consumed)
	checkManifest(p)
	checkChainRoots(p)
}

// reportStaleEscapes flags every //eucon:alloc-ok in the package that
// suppressed nothing: either the construct it once covered is now allowed
// (a demoted escape) or the escape sits outside any //eucon:noalloc
// function, where it has no owning contract.
func reportStaleEscapes(p *pass, consumed map[string]bool) {
	for _, pos := range p.dirs.occurrences(dirAllocOK) {
		pp := p.pkg.Fset.Position(pos)
		if consumed[lineKey(pp.Filename, pp.Line)] {
			continue
		}
		p.reportf(pos, "stale //eucon:alloc-ok: the escape suppresses nothing (escapes are honored only inside //eucon:noalloc functions, and only on lines with an allocating construct); remove it")
	}
}

// noallocWalker carries the per-function state of one noalloc body walk.
// It runs in two modes: the annotated-contract mode (honorEscapes=true)
// reports diagnostics through the pass and honors //eucon:alloc-ok lines,
// recording which escapes fired; the proof-engine mode collects the first
// obstacle into firstIssue for program.prove, with escapes ignored.
type noallocWalker struct {
	prog *program
	pkg  *Package
	decl *ast.FuncDecl

	honorEscapes bool
	pass         *pass
	consumed     map[string]bool

	// storeLits are the composite literals of struct/array type in plain
	// value-store position (assignment RHS, var initializer, return
	// value), which compile to stores, not allocations.
	storeLits map[*ast.CompositeLit]bool

	firstIssue    string
	firstIssuePos token.Pos
	// sawInflight marks that the proof leaned on an in-flight (cycle)
	// assumption, so a positive result must not be memoized yet.
	sawInflight bool
}

// issue records one finding: reported (minus escapes) in annotated mode,
// collected with its position appended in engine mode.
func (w *noallocWalker) issue(pos token.Pos, format string, args ...any) {
	if w.honorEscapes {
		if keys := w.pass.dirs.directiveKeys(pos, dirAllocOK); len(keys) > 0 {
			for _, k := range keys {
				w.consumed[k] = true
			}
			return
		}
		w.pass.reportf(pos, "//eucon:noalloc function %s: "+format,
			append([]any{w.decl.Name.Name}, args...)...)
		return
	}
	if w.firstIssue == "" {
		w.firstIssue = fmt.Sprintf(format, args...) + " at " + shortPos(w.pkg, pos)
		w.firstIssuePos = pos
	}
}

// callIssue records a call-chain finding whose message already carries
// positions (a failed callee proof), so engine mode must not append one.
func (w *noallocWalker) callIssue(pos token.Pos, annotated, engine string) {
	if w.honorEscapes {
		w.issue(pos, "%s", annotated)
		return
	}
	if w.firstIssue == "" {
		w.firstIssue = engine
		w.firstIssuePos = pos
	}
}

func (w *noallocWalker) visit(n ast.Node) bool {
	info := w.pkg.Info
	switch n := n.(type) {
	case *ast.CompositeLit:
		if w.storeLits[n] {
			return true
		}
		w.issue(n.Pos(), "composite literal may allocate")
	case *ast.FuncLit:
		w.issue(n.Pos(), "closure allocates")
		return false // the closure body is not part of the checked function
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := info.TypeOf(n); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.issue(n.Pos(), "string concatenation allocates")
				}
			}
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
			if t := info.TypeOf(n.Lhs[0]); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.issue(n.Pos(), "string concatenation allocates")
				}
			}
		}
		w.checkAssignBoxing(n)
	case *ast.ValueSpec:
		w.checkSpecBoxing(n)
	case *ast.ReturnStmt:
		w.checkReturnBoxing(n)
	case *ast.CallExpr:
		w.checkCall(n)
	}
	return true
}

// collectStoreLits finds the composite literals that are plain value
// stores: a struct or array literal whose value lands directly in an
// assignment, var initializer, or return value compiles to field stores
// on the destination, not a heap allocation. Sub-literals of struct or
// array type inside such a literal are part of the same store. Slice and
// map literals, addressed literals (&T{}), and literals in any other
// position (call arguments, index expressions) still allocate or are
// conservatively treated as if they may.
func collectStoreLits(info *types.Info, body *ast.BlockStmt) map[*ast.CompositeLit]bool {
	lits := make(map[*ast.CompositeLit]bool)
	var markValue func(e ast.Expr)
	markValue = func(e ast.Expr) {
		cl, ok := ast.Unparen(e).(*ast.CompositeLit)
		if !ok {
			return
		}
		t := info.TypeOf(cl)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Struct, *types.Array:
			lits[cl] = true
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markValue(kv.Value)
				} else {
					markValue(el)
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, rhs := range n.Rhs {
					markValue(rhs)
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				markValue(v)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markValue(r)
			}
		}
		return true
	})
	return lits
}

// checkCall classifies one call inside a checked function.
func (w *noallocWalker) checkCall(call *ast.CallExpr) {
	info := w.pkg.Info
	if isConversion(info, call) {
		// Conversions are free unless they box into an interface.
		if t := info.TypeOf(call.Fun); t != nil && isInterface(t) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); isBoxedBy(at, t) {
				w.issue(call.Pos(), "conversion of concrete %s to interface %s allocates",
					typeStr(w.pkg, at), typeStr(w.pkg, t))
			}
		}
		return
	}
	switch obj := calleeObject(info, call).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "append":
			w.issue(call.Pos(), "append may grow and allocate")
		case "make":
			w.issue(call.Pos(), "make allocates")
		case "new":
			w.issue(call.Pos(), "new allocates")
		default:
			if !noallocSafeBuiltins[obj.Name()] {
				w.issue(call.Pos(), "builtin %s may allocate", obj.Name())
			}
		}
		return
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && isInterface(sig.Recv().Type()) {
			w.checkInterfaceCall(call, obj)
			return
		}
		pr := w.prog.prove(obj)
		if !pr.ok {
			w.callIssue(call.Pos(),
				fmt.Sprintf("calls %s, which is not provably allocation-free: %s", obj.FullName(), pr.issue),
				fmt.Sprintf("via %s (%s): %s", obj.FullName(), shortPos(w.pkg, call.Pos()), pr.issue))
			return
		}
		if pr.provisional {
			w.sawInflight = true
		}
		w.checkArgBoxing(call)
		return
	default:
		// A *types.Var (function-typed variable, field, or parameter) or an
		// unresolvable callee: nothing to descend into.
		w.issue(call.Pos(), "dynamic call through a function value cannot be verified allocation-free")
	}
}

// checkInterfaceCall resolves a dynamic dispatch through interface method
// m over every concrete implementor in the load set (class-hierarchy
// analysis): the call is allocation-free iff every possible target is.
func (w *noallocWalker) checkInterfaceCall(call *ast.CallExpr, m *types.Func) {
	targets := w.prog.interfaceTargets(m)
	if len(targets) == 0 {
		w.issue(call.Pos(), "dynamic call of interface method %s has no implementors in the analyzed source and cannot be verified allocation-free", m.Name())
		return
	}
	for _, t := range targets {
		pr := w.prog.prove(t)
		if !pr.ok {
			w.callIssue(call.Pos(),
				fmt.Sprintf("dynamic call of %s may dispatch to %s, which is not provably allocation-free: %s", m.Name(), t.FullName(), pr.issue),
				fmt.Sprintf("via dynamic %s -> %s (%s): %s", m.Name(), t.FullName(), shortPos(w.pkg, call.Pos()), pr.issue))
			return
		}
		if pr.provisional {
			w.sawInflight = true
		}
	}
	w.checkArgBoxing(call)
}

// checkArgBoxing flags concrete arguments passed to interface-typed
// parameters of an otherwise-allowed call.
func (w *noallocWalker) checkArgBoxing(call *ast.CallExpr) {
	info := w.pkg.Info
	ft := info.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // []T passed whole
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterface(pt) {
			continue
		}
		if at := info.TypeOf(arg); isBoxedBy(at, pt) {
			w.issue(arg.Pos(), "passing concrete %s as interface %s allocates",
				typeStr(w.pkg, at), typeStr(w.pkg, pt))
		}
	}
}

// checkAssignBoxing flags assignments that box a concrete value into an
// interface-typed destination.
func (w *noallocWalker) checkAssignBoxing(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	info := w.pkg.Info
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := info.TypeOf(lhs)
		if lt == nil || !isInterface(lt) {
			continue
		}
		if rt := info.TypeOf(n.Rhs[i]); isBoxedBy(rt, lt) {
			w.issue(n.Rhs[i].Pos(), "assigning concrete %s to interface %s allocates",
				typeStr(w.pkg, rt), typeStr(w.pkg, lt))
		}
	}
}

// checkSpecBoxing flags var declarations with an interface type and
// concrete initializers.
func (w *noallocWalker) checkSpecBoxing(n *ast.ValueSpec) {
	if n.Type == nil {
		return
	}
	info := w.pkg.Info
	lt := info.TypeOf(n.Type)
	if lt == nil || !isInterface(lt) {
		return
	}
	for _, v := range n.Values {
		if rt := info.TypeOf(v); isBoxedBy(rt, lt) {
			w.issue(v.Pos(), "assigning concrete %s to interface %s allocates",
				typeStr(w.pkg, rt), typeStr(w.pkg, lt))
		}
	}
}

// checkReturnBoxing flags returns of concrete values from interface-typed
// results.
func (w *noallocWalker) checkReturnBoxing(n *ast.ReturnStmt) {
	obj, ok := w.pkg.Info.Defs[w.decl.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(n.Results) {
		return
	}
	for i, r := range n.Results {
		rt := results.At(i).Type()
		if !isInterface(rt) {
			continue
		}
		if at := w.pkg.Info.TypeOf(r); isBoxedBy(at, rt) {
			w.issue(r.Pos(), "returning concrete %s as interface %s allocates",
				typeStr(w.pkg, at), typeStr(w.pkg, rt))
		}
	}
}

// noallocSafeCallee allows selected standard-library callees that are
// known not to allocate: the pure math package and methods on explicitly
// seeded math/rand generators (the simulator's jitter draws).
func noallocSafeCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math":
		return true
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() != nil
	}
	return false
}

// isInterface reports whether t is an interface type (including any).
func isInterface(t types.Type) bool {
	return t != nil && types.IsInterface(t)
}

// isBoxedBy reports whether storing a value of type 'from' into a
// destination of interface type requires boxing: a concrete, non-nil
// source.
func isBoxedBy(from, to types.Type) bool {
	if from == nil || !isInterface(to) || isInterface(from) {
		return false
	}
	if b, ok := from.(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return false
	}
	return true
}

// typeStr renders a type relative to the analyzed package.
func typeStr(pkg *Package, t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, types.RelativeTo(pkg.Types))
}
