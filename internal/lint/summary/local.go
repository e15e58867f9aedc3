// Local fact extraction: one path-aware walk per declared function,
// producing the non-derived half of its FuncSummary. The walk tracks
// the set of held (RW)Mutexes through branches the way the locksafe
// analyzer does — acquire opens, release closes, defer Unlock holds to
// function end, branches scan a copy — and records every static call
// site together with the held-lock snapshot, so the fixed-point layer
// can turn callee acquisitions into lock-order edges.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sqpeer/internal/lint/callgraph"
)

// localFacts are the directly observed effects of one function body.
type localFacts struct {
	acquires     []string   // lock IDs acquired outside function literals
	lockEdges    []LockEdge // direct held→acquired edges (literals included)
	netOps       []NetOp    // direct unbounded network.Call/Send sites
	calls        []callFact // static call sites with context
	runsForever  bool
	spawnsParams []int
}

// callFact is one static call site with the context propagation needs.
type callFact struct {
	callee    string
	site      Site
	held      []string // sorted lock IDs held at the call
	inLit     bool     // inside a function literal: effects may be asynchronous
	paramArgs []paramArg
}

// paramArg maps a tracked caller parameter to the argument position it
// occupies in this call.
type paramArg struct {
	argIdx   int // position in the callee's parameter list
	paramIdx int // position in the caller's parameter list
}

// walker carries the per-function extraction state.
type walker struct {
	pkg    *callgraph.SourcePkg
	lf     *localFacts
	params map[types.Object]int // tracked (func-typed) parameters
	inLit  bool
}

// collectLocal extracts the local facts of one declared function.
func collectLocal(pkg *callgraph.SourcePkg, node *callgraph.Func) *localFacts {
	lf := &localFacts{}
	if node.Decl == nil || node.Decl.Body == nil {
		return lf
	}
	w := &walker{pkg: pkg, lf: lf, params: map[types.Object]int{}}
	sig := node.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isFuncType(p.Type()) {
			w.params[p] = i
		}
	}
	w.scanStmts(node.Decl.Body.List, map[string]bool{})
	return lf
}

// scanStmts walks one statement list linearly, maintaining the held set.
func (w *walker) scanStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if id, op, ok := w.lockOp(s.X); ok {
				w.applyLockOp(id, op, held, s.X.Pos())
				continue
			}
			w.scanExpr(s.X, held)
		case *ast.DeferStmt:
			if id, op, ok := w.lockOp(s.Call); ok {
				// defer mu.Unlock() keeps the region open to function end;
				// a deferred Lock is recorded like an immediate one.
				if op == "Lock" || op == "RLock" {
					w.applyLockOp(id, op, held, s.Call.Pos())
				}
				continue
			}
			// Other deferred calls run at return, when the locks released
			// by then are unknowable; record them lock-free.
			w.scanExpr(s.Call, map[string]bool{})
		case *ast.GoStmt:
			w.scanSpawn(s)
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				w.scanExpr(r, held)
			}
			for _, l := range s.Lhs {
				w.scanExpr(l, held)
			}
		case *ast.IfStmt:
			if s.Init != nil {
				w.scanStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Cond, held)
			w.scanStmts(s.Body.List, clone(held))
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				w.scanStmts(e.List, clone(held))
			case *ast.IfStmt:
				w.scanStmts([]ast.Stmt{e}, clone(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				w.scanStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Cond, held)
			if s.Post != nil {
				w.scanStmts([]ast.Stmt{s.Post}, clone(held))
			}
			if !w.inLit && isInfiniteFor(s) && !loopHasExit(s) {
				w.lf.runsForever = true
			}
			w.scanStmts(s.Body.List, clone(held))
		case *ast.RangeStmt:
			w.scanExpr(s.X, held)
			w.scanStmts(s.Body.List, clone(held))
		case *ast.BlockStmt:
			w.scanStmts(s.List, clone(held))
		case *ast.SwitchStmt:
			if s.Init != nil {
				w.scanStmts([]ast.Stmt{s.Init}, held)
			}
			w.scanExpr(s.Tag, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if cc.Comm != nil {
						w.scanStmts([]ast.Stmt{cc.Comm}, clone(held))
					}
					w.scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.LabeledStmt:
			w.scanStmts([]ast.Stmt{s.Stmt}, held)
		case *ast.DeclStmt, *ast.BranchStmt, *ast.IncDecStmt, *ast.EmptyStmt:
			if d, ok := s.(*ast.IncDecStmt); ok {
				w.scanExpr(d.X, held)
			}
		default:
			ast.Inspect(stmt, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					w.scanExpr(e, held)
					return false
				}
				return true
			})
		}
	}
}

// scanSpawn handles one go statement: spawned parameters feed
// SpawnsParams; spawned literals are scanned as fresh lock-free bodies
// (goroleak analyzes their exit conditions inline at the spawn site).
func (w *walker) scanSpawn(s *ast.GoStmt) {
	fun := ast.Unparen(s.Call.Fun)
	if idx, ok := w.paramIndex(fun); ok {
		w.lf.spawnsParams = appendIntOnce(w.lf.spawnsParams, idx)
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		w.scanLit(lit)
	} else {
		w.scanExpr(fun, map[string]bool{})
	}
	for _, a := range s.Call.Args {
		w.scanExpr(a, map[string]bool{})
	}
}

// scanLit scans a function literal body: fresh held set (the literal
// usually runs on another goroutine or at defer time), and effects
// flagged as literal-borne so synchronous facts don't leak upward.
func (w *walker) scanLit(lit *ast.FuncLit) {
	saved := w.inLit
	w.inLit = true
	w.scanStmts(lit.Body.List, map[string]bool{})
	w.inLit = saved
}

// scanExpr records the calls and lock events inside one expression
// evaluated with the given held set.
func (w *walker) scanExpr(expr ast.Expr, held map[string]bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.scanLit(e)
			return false
		case *ast.CallExpr:
			if id, op, ok := w.lockOp(e); ok {
				// A lock op in expression position (rare) is applied to a
				// copy: linear statement flow owns the real held set.
				w.applyLockOp(id, op, clone(held), e.Pos())
				return false
			}
			w.recordCall(e, held)
		}
		return true
	})
}

// recordCall emits the callFact and direct-NetOp facts for one call.
func (w *walker) recordCall(call *ast.CallExpr, held map[string]bool) {
	callee := callgraph.CalleeOf(w.pkg.Info, call)
	if callee == nil {
		return
	}
	cf := callFact{
		callee: callgraph.FuncKey(callee),
		site:   SiteAt(w.pkg.Fset, call.Pos()),
		held:   sortedKeys(held),
		inLit:  w.inLit,
	}
	for i, a := range call.Args {
		if idx, ok := w.paramIndex(a); ok {
			cf.paramArgs = append(cf.paramArgs, paramArg{argIdx: i, paramIdx: idx})
		}
	}
	w.lf.calls = append(w.lf.calls, cf)

	if op, ok := unboundedNetOp(w.pkg, callee); ok {
		w.lf.netOps = append(w.lf.netOps, NetOp{Op: op, Site: cf.site})
	}
}

// applyLockOp mutates the held set for one Lock/RLock/Unlock/RUnlock and
// records acquisition facts.
func (w *walker) applyLockOp(id string, op string, held map[string]bool, pos token.Pos) {
	if id == "" {
		return
	}
	switch op {
	case "Lock", "RLock":
		site := SiteAt(w.pkg.Fset, pos)
		for _, h := range sortedKeys(held) {
			w.lf.lockEdges = append(w.lf.lockEdges, LockEdge{From: h, To: id, Site: site})
		}
		held[id] = true
		if !w.inLit {
			w.lf.acquires = appendStrOnce(w.lf.acquires, id)
		}
	case "Unlock", "RUnlock":
		delete(held, id)
	}
}

// lockOp recognizes mu.Lock/RLock/Unlock/RUnlock on sync.Mutex or
// sync.RWMutex receivers (embedded included) and returns the lock's
// package-level identity.
func (w *walker) lockOp(e ast.Expr) (id, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, _ := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	recv := recvNamed(fn)
	if !namedIs(recv, "sync", "Mutex") && !namedIs(recv, "sync", "RWMutex") {
		return "", "", false
	}
	return lockID(w.pkg, sel.X), sel.Sel.Name, true
}

// lockID renders the package-level identity of a mutex expression:
// "pkgpath.Type.field" for a field mutex, "pkgpath.var" for a package-
// level one, "pkgpath.Type" for an embedded one. Local mutexes have no
// cross-function identity and yield "".
func lockID(pkg *callgraph.SourcePkg, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil {
			if n := namedOf(s.Recv()); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + sel.Sel.Name
			}
		}
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	// Embedded mutex: identify it by the named type that embeds it.
	if tv, ok := pkg.Info.Types[recv]; ok {
		if n := namedOf(tv.Type); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name()
		}
	}
	return ""
}

// unboundedNetOp reports whether callee is the deadline-free
// network.Call or network.Send. Calls inside the network package itself
// are the transport's implementation, not uses of it.
func unboundedNetOp(pkg *callgraph.SourcePkg, callee *types.Func) (string, bool) {
	if callgraph.PathTail(pkg.Path, "network") {
		return "", false
	}
	name := callee.Name()
	if name != "Call" && name != "Send" {
		return "", false
	}
	recv := recvNamed(callee)
	if !namedIs(recv, "network", "Network") {
		return "", false
	}
	return name, true
}

// paramIndex resolves an expression to a tracked parameter's index.
func (w *walker) paramIndex(e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		return 0, false
	}
	idx, ok := w.params[obj]
	return idx, ok
}

// isInfiniteFor reports a for loop with no condition or a constant-true
// one.
func isInfiniteFor(s *ast.ForStmt) bool {
	if s.Cond == nil {
		return true
	}
	if id, ok := ast.Unparen(s.Cond).(*ast.Ident); ok && id.Name == "true" {
		return true
	}
	return false
}

// loopHasExit reports whether an infinite for loop contains a way out:
// a return, a break that targets it, or a panic. Breaks inside nested
// loops, switches and selects target those constructs, not this loop,
// unless they carry its label.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if n == nil || exit {
			return
		}
		switch s := n.(type) {
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && breakable {
				exit = true
			}
			// A labeled break targeting an outer label also exits; being
			// conservative the other way would flag legitimate loops, so
			// treat any labeled break as an exit.
			if s.Tok == token.BREAK && s.Label != nil {
				exit = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "panic" {
				exit = true
			}
			for _, a := range s.Args {
				walk(a, false)
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// break inside these targets them, not our loop; returns
			// inside them still exit.
			ast.Inspect(s, func(inner ast.Node) bool {
				if inner == s {
					return true
				}
				walk(inner, false)
				return false
			})
		case *ast.FuncLit:
			// A literal's returns do not exit the loop.
		default:
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				walk(inner, breakable)
				return false
			})
		}
	}
	for _, st := range loop.Body.List {
		walk(st, true)
	}
	return exit
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func recvNamed(f *types.Func) *types.Named {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedIs matches by package-path tail so fixture packages (short paths
// like "network") satisfy the same rules as the real ones.
func namedIs(n *types.Named, pkgTail, name string) bool {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return callgraph.PathTail(n.Obj().Pkg().Path(), pkgTail) && n.Obj().Name() == name
}

func clone(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func appendIntOnce(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

func appendStrOnce(xs []string, v string) []string {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
