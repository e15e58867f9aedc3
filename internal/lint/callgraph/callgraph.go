// Package callgraph builds the package-level call graph the
// interprocedural lint tier (internal/lint/summary and the lockorder/
// deadlinebound/goroleak analyzers) is computed over. A Graph
// covers one type-checked package: one node per declared function or
// method, each carrying its resolved static call sites. Calls through
// plain function values (fields, parameters, locals) have no static
// callee and appear as dynamic sites; the summary layer models the one
// shape it needs (callbacks that are spawned) through parameter effects
// instead of chasing values.
//
// Nodes are keyed by the stable full name of their *types.Func (e.g.
// "sqpeer/internal/exec.(*Engine).run"), which is also the key format of
// the summary index.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SourcePkg is the package shape the interprocedural tier consumes: the
// parse/type-check products that both internal/lint/load packages and
// analysistest fixture packages can supply.
type SourcePkg struct {
	// Path is the import path ("sqpeer/internal/exec", or a short
	// fixture path like "a").
	Path string
	// Fset maps positions for Files and for every dependency
	// type-checked alongside them.
	Fset *token.FileSet
	// Files are the package's parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's annotations for Files.
	Info *types.Info
}

// Func is one call-graph node: a function or method declared in the
// package, with its statically resolved outgoing calls.
type Func struct {
	// Key is the stable full name (types.Func.FullName).
	Key string
	// Obj is the declared function object.
	Obj *types.Func
	// Decl is the declaration, body included (nil body for external
	// linkage declarations, which produce no calls).
	Decl *ast.FuncDecl
	// Calls are the static call sites in source order.
	Calls []Call
}

// Call is one statically resolved call site.
type Call struct {
	// Callee is the invoked function (never nil; dynamic calls are not
	// recorded as Calls).
	Callee *types.Func
	// Pos locates the call expression.
	Pos token.Pos
}

// Graph is the call graph of one package.
type Graph struct {
	// Funcs maps node key to node, and Keys lists them sorted so every
	// traversal of the graph is deterministic.
	Funcs map[string]*Func
	Keys  []string
}

// FuncKey renders the stable key for a function object.
func FuncKey(f *types.Func) string { return f.FullName() }

// Build constructs the call graph for one package. Call sites inside
// function literals are attributed to the enclosing declared function:
// the summary layer treats a literal's effects as happening under its
// owner except where it analyzes literal bodies directly (goroutine
// spawn sites).
func Build(pkg *SourcePkg) *Graph {
	g := &Graph{Funcs: map[string]*Func{}}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &Func{Key: FuncKey(obj), Obj: obj, Decl: fd}
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeOf(pkg.Info, call); callee != nil {
						node.Calls = append(node.Calls, Call{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
			}
			g.Funcs[node.Key] = node
		}
	}
	for k := range g.Funcs {
		g.Keys = append(g.Keys, k)
	}
	sort.Strings(g.Keys)
	return g
}

// CalleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls, conversions and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// PathTail reports whether path is exactly tail or ends in "/"+tail, so
// rules about e.g. the rql package hold both for the real
// sqpeer/internal/rql path and for short analysistest fixture paths.
func PathTail(path, tail string) bool {
	return path == tail || (len(path) > len(tail) &&
		path[len(path)-len(tail)-1] == '/' && path[len(path)-len(tail):] == tail)
}

// TopoSort orders packages so every package follows all of its
// dependencies that are themselves in the input set (imports among the
// set form a DAG — Go forbids import cycles). Ties break by path, so
// the order is deterministic for a given input set.
func TopoSort(pkgs []*SourcePkg) []*SourcePkg {
	byPath := map[string]*SourcePkg{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)

	var out []*SourcePkg
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(path string)
	visit = func(path string) {
		p, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		deps := make([]string, 0, len(p.Types.Imports()))
		for _, imp := range p.Types.Imports() {
			deps = append(deps, imp.Path())
		}
		sort.Strings(deps)
		for _, d := range deps {
			visit(d)
		}
		state[path] = 2
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}
