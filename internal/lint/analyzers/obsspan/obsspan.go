// Package obsspan guards the PR5 tracing contract: every span opened
// with (*obs.Span).Child / ChildAt or obs.RemoteSpan must be closed on
// every return path, or handed to someone who will close it. An
// unclosed span still exports (flagged `unclosed=true`), but it charges
// its subtree to the wrong place in the critical-path attribution, so a
// leak is a correctness bug in the observability layer, not cosmetics.
//
// The analyzer flags an opener call when
//
//   - its result is discarded (expression statement or blank assign) —
//     nobody can ever End such a span; or
//   - it is assigned to a local variable that neither escapes (passed
//     as a call argument, returned, stored into a structure, captured
//     by a closure), nor has a `defer x.End()`, nor has an `x.End()`
//     call lexically between the open and every later return of the
//     enclosing function.
//
// The lexical rule is an approximation, deliberately conservative in
// the same direction as the instrumented code's idioms: open-use-End
// straight-line blocks, defer-End, and handing the span down the call
// tree all pass; anything where a return path can skip the End is
// reported. Genuinely fine sites carry //lint:allow obsspan.
//
// The analyzer also guards the event-log contract: an x.EmitEvent(...)
// — or a recv.record(..., x, ...) call, the executor's one write path,
// which emits the recorded fact's events correlated to x — lexically
// after x.End() is flagged. A span's identity (trace id, path) is fixed
// when it Ends — emitting afterwards correlates the event to a span the
// exporters have already sealed, so the emit must move before the End
// or onto a still-open ancestor span. defer x.End() is exempt: it runs
// at return, after every lexical emit.
package obsspan

import (
	"go/ast"
	"go/token"
	"go/types"

	"sqpeer/internal/lint/analysis"
)

// Analyzer flags span opens that can leak; see the package comment.
var Analyzer = &analysis.Analyzer{
	Name: "obsspan",
	Doc:  "flag obs spans opened without End on every return path (discarded, or neither deferred, closed, nor escaped), and events emitted on a span after its End",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil, nil
}

// candidate is one span-typed local bound to an opener call.
type candidate struct {
	obj  types.Object
	open token.Pos
	name string
}

// checkFunc inspects one function body. Nested function literals run
// their own checkFunc (run's Inspect visits them); here they only count
// as escapes for spans of the enclosing function.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var cands []candidate
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isOpener(pass, call) {
				pass.Reportf(call.Pos(),
					"span returned by %s is discarded; assign it and close it with End() (or defer End())", callName(call))
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || !isOpener(pass, call) {
				return true
			}
			id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
			if !ok {
				return true // stored into a slice/field: someone else owns it
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(),
					"span returned by %s is discarded; assign it and close it with End() (or defer End())", callName(call))
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				cands = append(cands, candidate{obj: obj, open: s.Pos(), name: id.Name})
			}
		}
		return true
	})
	for _, c := range cands {
		checkCandidate(pass, body, c)
	}
}

// checkCandidate verifies one opened span is closed on every return path.
func checkCandidate(pass *analysis.Pass, body *ast.BlockStmt, c candidate) {
	var (
		escaped  bool
		deferEnd bool
		ends     []token.Pos
		emits    []token.Pos
		returns  []token.Pos
	)
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			// A closure capturing the span takes over its lifetime.
			if mentions(pass, s, c.obj) {
				escaped = true
			}
			return false
		case *ast.DeferStmt:
			if isEndOn(pass, s.Call, c.obj) {
				deferEnd = true
				return false
			}
		case *ast.CallExpr:
			if isEndOn(pass, s, c.obj) {
				ends = append(ends, s.Pos())
				return false
			}
			if isEmitOn(pass, s, c.obj) {
				// Use, not escape: an emit on the span, or a record call
				// that only correlates its events to the span.
				emits = append(emits, s.Pos())
				return false
			}
			// A method call on the span itself (Annotate, ChargeMS) is
			// use, not escape; the span appearing anywhere in an
			// argument is an ownership hand-off.
			for _, arg := range s.Args {
				if mentions(pass, arg, c.obj) {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			if s.Pos() > c.open {
				returns = append(returns, s.Pos())
			}
			if mentions(pass, s, c.obj) {
				escaped = true
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if mentions(pass, rhs, c.obj) && !isOpenOf(pass, rhs, c) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			if mentions(pass, s, c.obj) {
				escaped = true
			}
		}
		return true
	})
	// Emit-after-End: a sealed span must not source new events. Checked
	// before the escape/defer exemptions — an explicit End() seals the
	// span no matter who else holds it, and defer-End (which runs after
	// every lexical emit) contributes nothing to ends.
	for _, emit := range emits {
		for _, end := range ends {
			if end < emit {
				pass.Reportf(emit,
					"event emitted on span %s after %s.End(); move the emit before End() or emit on a still-open ancestor span", c.name, c.name)
				break
			}
		}
	}
	if escaped || deferEnd {
		return
	}
	// With no explicit return after the open, the function's implicit
	// fall-off end is the one return path.
	if len(returns) == 0 {
		returns = []token.Pos{body.Rbrace}
	}
	for _, ret := range returns {
		closed := false
		for _, end := range ends {
			if end > c.open && end < ret {
				closed = true
				break
			}
		}
		if !closed {
			pass.Reportf(c.open,
				"span %s may be left open on a return path; defer %s.End(), call End() before every return, or pass the span on", c.name, c.name)
			return
		}
	}
}

// isOpener reports whether call opens a span: (*obs.Span).Child /
// ChildAt, or the package function obs.RemoteSpan. The obs package is
// matched by path tail so analysistest fixtures at the short path
// "obs" exercise the same rule as sqpeer/internal/obs.
func isOpener(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.FuncOf(pass.TypesInfo, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Name() {
	case "Child", "ChildAt":
		recv := analysis.MethodRecvNamed(fn)
		return recv != nil && recv.Obj().Name() == "Span" &&
			recv.Obj().Pkg() != nil && analysis.PkgPathTail(recv.Obj().Pkg().Path(), "obs")
	case "RemoteSpan":
		return analysis.PkgFunc(fn, fn.Pkg().Path()) && analysis.PkgPathTail(fn.Pkg().Path(), "obs")
	}
	return false
}

// isEmitOn reports whether call is obj.EmitEvent(...) or
// recv.record(..., obj, ...).
func isEmitOn(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "EmitEvent":
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == obj
	case "record":
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}

// isEndOn reports whether call is obj.End().
func isEndOn(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// isOpenOf reports whether rhs is the candidate's own opener call (the
// assignment that created it must not count as an escape).
func isOpenOf(pass *analysis.Pass, rhs ast.Expr, c candidate) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	return ok && call.Pos() >= c.open && isOpener(pass, call)
}

// mentions reports whether the node references obj.
func mentions(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	hit := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			hit = true
		}
		return !hit
	})
	return hit
}

// callName renders an opener call for diagnostics.
func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "the opener"
}
