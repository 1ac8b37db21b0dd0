package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// runConcurrency enforces the worker-fabric disciplines the goroutine-
// heavy layers (lane, agent, experiments, chaos) must keep as the
// distributed runtime grows:
//
//   - goroutine lifetime: every go statement must be joinable or
//     cancellable — the spawned closure defers wg.Done(), the call carries
//     a *sync.WaitGroup, or the spawned work references a context.Context
//     that arrived through the spawning function's signature; otherwise
//     the goroutine can outlive its spawner unobserved
//     (//eucon:goroutine-ok escapes the rule with a justification);
//   - lock values: receivers and parameters passed by value must not
//     contain sync.Mutex/RWMutex/WaitGroup/Once/Cond — the copy splits
//     the lock state;
//   - lock flow: a Lock/RLock must be discharged by an Unlock/RUnlock or
//     a defer on every linear path; returning or falling off the end
//     while holding is a finding (//eucon:lock-ok marks intentional
//     ownership transfer);
//   - channel discipline: a send on a channel already closed on the same
//     path is a finding, and a bare (non-select) send in a function that
//     takes a context.Context is a finding — the send would block past
//     cancellation (//eucon:send-ok escapes provably non-blocking sends).
//
// The flow rules are linear-path heuristics over the statement tree (with
// branch bodies analyzed against cloned state), not a full CFG; function
// literal bodies are only examined by the go-statement rule.
func runConcurrency(p *pass) {
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockValues(p, fd)
			checkGoStmts(p, fd)
			fc := &flowChecker{pass: p, hasCtx: hasCtxParam(p, fd)}
			state := newFlowState()
			if !fc.block(fd.Body.List, state) {
				fc.finish(fd, state)
			}
		}
	}
}

// ---- goroutine lifetime ----

// checkGoStmts applies the join-or-cancel rule to every go statement in
// the function, including those inside nested function literals (the
// enclosing signature used for the context rule is the declared one).
func checkGoStmts(p *pass, fd *ast.FuncDecl) {
	ctxParam := hasCtxParam(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if p.dirs.lineHas(gs.Pos(), dirGoroutineOK) || goStmtJoined(p, gs, ctxParam) {
			return true
		}
		p.reportf(gs.Pos(), "goroutine has no join or cancellation: defer wg.Done() in the body, pass the *sync.WaitGroup along, thread a context.Context from %s's signature, or annotate //eucon:goroutine-ok with the lifetime argument", fd.Name.Name)
		return true
	})
}

// goStmtJoined reports whether the go statement satisfies the lifetime
// rule.
func goStmtJoined(p *pass, gs *ast.GoStmt, ctxParam bool) bool {
	// WaitGroup discipline: the spawned closure defers wg.Done(), or the
	// call hands the WaitGroup to the spawned function.
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok && hasDeferDone(p, lit.Body) {
		return true
	}
	for _, arg := range gs.Call.Args {
		if isWaitGroupPtr(p.pkg.Info.TypeOf(arg)) {
			return true
		}
	}
	// Context discipline: the spawned work references a context.Context
	// and the spawner received one, so cancellation reaches the goroutine.
	if ctxParam {
		refs := false
		ast.Inspect(gs.Call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && isContextType(p.pkg.Info.TypeOf(id)) {
				refs = true
			}
			return !refs
		})
		if refs {
			return true
		}
	}
	return false
}

// hasDeferDone reports whether the block defers (*sync.WaitGroup).Done.
func hasDeferDone(p *pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if fn, ok := calleeObject(p.pkg.Info, ds.Call).(*types.Func); ok &&
			fn.FullName() == "(*sync.WaitGroup).Done" {
			found = true
		}
		return !found
	})
	return found
}

// hasCtxParam reports whether the function's signature includes a
// context.Context parameter.
func hasCtxParam(p *pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(p.pkg.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

// isWaitGroupPtr reports whether t is *sync.WaitGroup.
func isWaitGroupPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), "sync", "WaitGroup")
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// ---- lock values ----

// checkLockValues flags by-value receivers and parameters whose type
// contains a sync primitive: the copy forks the lock state.
func checkLockValues(p *pass, fd *ast.FuncDecl) {
	check := func(field *ast.Field, what string) {
		t := p.pkg.Info.TypeOf(field.Type)
		if t == nil {
			return
		}
		lock := containsLock(t, nil)
		if lock == "" || p.dirs.lineHas(field.Pos(), dirLockOK) {
			return
		}
		name := "_"
		if len(field.Names) > 0 {
			name = field.Names[0].Name
		}
		p.reportf(field.Pos(), "%s %s is passed by value and contains %s; use a pointer so the lock state is shared", what, name, lock)
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			check(field, "receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			check(field, "parameter")
		}
	}
}

// containsLock reports the first sync primitive embedded by value in t
// ("" if none). Pointers stop the walk: a pointed-to lock is shared, not
// copied.
func containsLock(t types.Type, seen map[*types.Named]bool) string {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return "sync." + obj.Name()
			}
		}
		if seen == nil {
			seen = make(map[*types.Named]bool)
		}
		if seen[t] {
			return ""
		}
		seen[t] = true
		return containsLock(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if l := containsLock(t.Field(i).Type(), seen); l != "" {
				return l
			}
		}
	case *types.Array:
		return containsLock(t.Elem(), seen)
	}
	return ""
}

// ---- lock flow and channel discipline ----

// flowState is the linear-path state: held locks (keyed by the receiver's
// printed expression, "#r" suffix for read locks) and channels closed on
// this path, each mapped to the position that created the obligation.
type flowState struct {
	locks  map[string]token.Pos
	closed map[string]token.Pos
}

func newFlowState() *flowState {
	return &flowState{locks: make(map[string]token.Pos), closed: make(map[string]token.Pos)}
}

func (s *flowState) clone() *flowState {
	return &flowState{locks: maps.Clone(s.locks), closed: maps.Clone(s.closed)}
}

// flowChecker runs the lock-flow and channel rules over one function.
type flowChecker struct {
	pass   *pass
	hasCtx bool
}

// block walks a statement list, mutating state along the linear path and
// analyzing branch bodies against clones. It returns true when the path
// definitely terminated (return or panic), so callers skip the
// fall-off-the-end check.
func (fc *flowChecker) block(stmts []ast.Stmt, state *flowState) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if fc.call(call, state) {
					return true // panic
				}
			}
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				if call, ok := r.(*ast.CallExpr); ok {
					fc.call(call, state)
				}
			}
		case *ast.DeferStmt:
			fc.deferCall(s.Call, state)
		case *ast.SendStmt:
			fc.send(s, state, false)
		case *ast.ReturnStmt:
			fc.checkExit(s.Pos(), state, "return")
			return true
		case *ast.BranchStmt:
			return false // break/continue/goto end this linear path
		case *ast.IfStmt:
			fc.block(s.Body.List, state.clone())
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				fc.block(e.List, state.clone())
			case *ast.IfStmt:
				fc.block([]ast.Stmt{e}, state.clone())
			}
		case *ast.BlockStmt:
			if fc.block(s.List, state) {
				return true
			}
		case *ast.ForStmt:
			fc.block(s.Body.List, state.clone())
		case *ast.RangeStmt:
			fc.block(s.Body.List, state.clone())
		case *ast.SwitchStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					fc.block(cc.Body, state.clone())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					fc.block(cc.Body, state.clone())
				}
			}
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					fc.send(send, state, true)
				}
				fc.block(cc.Body, state.clone())
			}
		case *ast.LabeledStmt:
			if fc.block([]ast.Stmt{s.Stmt}, state) {
				return true
			}
		}
	}
	return false
}

// call interprets one call on the linear path: lock/unlock transitions,
// close() tracking, and panic termination.
func (fc *flowChecker) call(call *ast.CallExpr, state *flowState) (terminates bool) {
	if b, ok := calleeObject(fc.pass.pkg.Info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "panic":
			return true
		case "close":
			if len(call.Args) == 1 {
				state.closed[types.ExprString(call.Args[0])] = call.Pos()
			}
		}
		return false
	}
	key, op := lockMethodKey(fc.pass.pkg.Info, call)
	switch op {
	case "lock":
		state.locks[key] = call.Pos()
	case "unlock":
		delete(state.locks, key)
	}
	return false
}

// deferCall discharges lock obligations released by a defer: a direct
// deferred Unlock, or unlocks inside a deferred closure.
func (fc *flowChecker) deferCall(call *ast.CallExpr, state *flowState) {
	if key, op := lockMethodKey(fc.pass.pkg.Info, call); op == "unlock" {
		delete(state.locks, key)
		return
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if key, op := lockMethodKey(fc.pass.pkg.Info, inner); op == "unlock" {
				delete(state.locks, key)
			}
		}
		return true
	})
}

// send applies the channel rules to one send statement. Selected sends
// (inside a select comm clause) are exempt from the blocking rule but
// still checked against closes.
func (fc *flowChecker) send(s *ast.SendStmt, state *flowState, selected bool) {
	key := types.ExprString(s.Chan)
	if pos, ok := state.closed[key]; ok && !fc.pass.dirs.lineHas(s.Pos(), dirSendOK) {
		fc.pass.reportf(s.Pos(), "send on closed channel %s (closed at %s); sends after close panic", key, fc.shortPos(pos))
	}
	if !selected && fc.hasCtx && !fc.pass.dirs.lineHas(s.Pos(), dirSendOK) {
		fc.pass.reportf(s.Pos(), "blocking send on %s in a function that takes a context.Context; guard it with select { case %s <- ...: case <-ctx.Done(): } or annotate //eucon:send-ok", key, key)
	}
}

// checkExit reports locks still held when the path exits at pos.
func (fc *flowChecker) checkExit(pos token.Pos, state *flowState, how string) {
	if len(state.locks) == 0 || fc.pass.dirs.lineHas(pos, dirLockOK) {
		return
	}
	keys := make([]string, 0, len(state.locks))
	for key := range state.locks {
		if fc.pass.dirs.lineHas(state.locks[key], dirLockOK) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fc.pass.reportf(pos, "%s while holding %s (locked at %s); unlock on every path, use defer, or annotate //eucon:lock-ok",
			how, displayLock(key), fc.shortPos(state.locks[key]))
	}
}

// finish reports locks still held when control falls off the end of the
// function, anchored at the Lock site so the finding names the culprit.
func (fc *flowChecker) finish(fd *ast.FuncDecl, state *flowState) {
	if len(state.locks) == 0 {
		return
	}
	keys := make([]string, 0, len(state.locks))
	for key := range state.locks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pos := state.locks[key]
		if fc.pass.dirs.lineHas(pos, dirLockOK) {
			continue
		}
		fc.pass.reportf(pos, "%s locked here is still held when %s ends; add the missing unlock, use defer, or annotate //eucon:lock-ok",
			displayLock(key), fd.Name.Name)
	}
}

// shortPos renders a position module-relative for inline mentions.
func (fc *flowChecker) shortPos(pos token.Pos) string {
	return shortPos(fc.pass.pkg, pos)
}

// displayLock renders a lock key for messages.
func displayLock(key string) string {
	if rest, ok := strings.CutSuffix(key, "#r"); ok {
		return rest + " (read lock)"
	}
	return key
}

// lockMethodKey classifies a call as a lock or unlock on a sync mutex,
// returning the state key (receiver expression, "#r" for the read side)
// and the operation ("lock", "unlock", or "").
func lockMethodKey(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return "", ""
	}
	recv := types.ExprString(sel.X)
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		return recv, "lock"
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return recv, "unlock"
	case "(*sync.RWMutex).RLock":
		return recv + "#r", "lock"
	case "(*sync.RWMutex).RUnlock":
		return recv + "#r", "unlock"
	}
	return "", ""
}
