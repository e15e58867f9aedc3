// Package summary is the interprocedural tier of sqpeer-lint: per-
// function summaries of the concurrency- and lifecycle-relevant effects
// the three interprocedural analyzers (lockorder, deadlinebound,
// goroleak) reason about, propagated to a fixed point across the
// package-level call graph (internal/lint/callgraph).
//
// A FuncSummary records, for one declared function or method:
//
//   - Acquires / LockEdges — which package-identified (RW)Mutexes the
//     function (transitively) acquires, and the held→acquired order
//     edges its body contributes to the global lock-order graph;
//   - Unbounded — reachable calls to the deadline-free network.Call /
//     network.Send, each with the call chain that reaches it;
//   - RunsForever — whether the body contains an inescapable infinite
//     loop (directly or via a callee), i.e. is not a sound goroutine
//     body without an external exit;
//   - SpawnsParams — func-typed parameters the function launches as
//     goroutines (directly or by forwarding to a spawning callee), so
//     helpers spawned through callbacks are checked at the call site
//     that supplies the concrete function.
//
// Summaries are local facts plus derived facts. Local facts come from a
// single AST walk per function; derived facts are computed by iterating
// the package's functions in sorted order until nothing changes (the
// fixed point exists because every derived set only grows and is drawn
// from a finite universe). Packages are processed in import topological
// order, so cross-package calls always see final callee summaries;
// recursion — possible only inside one package — is what the in-package
// iteration resolves.
//
// Function literals are deliberately second-class: a literal's lock
// edges are recorded globally (a goroutine body's internal ordering is
// as real as a method's), but its acquisitions do not enter the
// enclosing function's Acquires set (they happen asynchronously when the
// literal is spawned, deferred, or stored), and goroleak analyzes `go
// func(){...}` bodies inline rather than through the index.
package summary

import (
	"go/token"
	"go/types"
	"sort"

	"sqpeer/internal/lint/callgraph"
)

// Site is a source position recorded by file name and byte offset, so
// it resolves back to a token.Pos in any FileSet holding the file.
type Site struct {
	File   string
	Offset int
	Line   int
	Col    int
}

// SiteAt captures a position from the FileSet.
func SiteAt(fset *token.FileSet, pos token.Pos) Site {
	p := fset.Position(pos)
	return Site{File: p.Filename, Offset: p.Offset, Line: p.Line, Col: p.Column}
}

// Pos resolves the site back to a token.Pos in fset, or token.NoPos if
// the file is not present there.
func (s Site) Pos(fset *token.FileSet) token.Pos {
	var found token.Pos = token.NoPos
	fset.Iterate(func(f *token.File) bool {
		if f.Name() == s.File && s.Offset <= f.Size() {
			found = f.Pos(s.Offset)
			return false
		}
		return true
	})
	return found
}

// LockEdge is one lock-order edge: while holding From, the code at Site
// acquires To — directly (Via == "") or by calling Via, which
// (transitively) acquires To. From == To is a reentrant-acquisition
// edge, a self-deadlock on Go's non-reentrant mutexes.
type LockEdge struct {
	From string
	To   string
	Site Site
	Via  string
}

// NetOp is one reachable unbounded network operation: a call to
// network.Call or network.Send (the deadline-free forms) at Site,
// reached through the Via chain of function keys (empty for a direct
// call in the summarized function).
type NetOp struct {
	Op   string // "Call" or "Send"
	Site Site
	Via  []string
}

// maxVia caps the reported call chain; deeper paths are elided, the
// endpoint is what matters.
const maxVia = 3

// FuncSummary is the interprocedural summary of one function.
type FuncSummary struct {
	// Acquires lists lock IDs the function may acquire while running
	// synchronously (transitive over calls, excludes function literals).
	Acquires []string
	// LockEdges are the held→acquired edges contributed by the body.
	LockEdges []LockEdge
	// Unbounded lists reachable deadline-free network.Call/Send sites.
	Unbounded []NetOp
	// RunsForever marks bodies with an inescapable infinite loop.
	RunsForever bool
	// SpawnsParams lists indices of func-typed parameters launched as
	// goroutines.
	SpawnsParams []int
}

// Index is the cross-package summary store the analyzers consult.
type Index struct {
	funcs map[string]*FuncSummary
	pkgs  map[string][]string // package path → sorted function keys
}

// Func returns the summary for a function key, or nil if unknown (a
// function outside the analyzed set, e.g. the standard library).
func (ix *Index) Func(key string) *FuncSummary { return ix.funcs[key] }

// FuncOf is Func keyed by the object itself.
func (ix *Index) FuncOf(f *types.Func) *FuncSummary {
	if f == nil {
		return nil
	}
	return ix.funcs[callgraph.FuncKey(f)]
}

// PackageFuncs returns the sorted function keys summarized for one
// package path.
func (ix *Index) PackageFuncs(path string) []string { return ix.pkgs[path] }

// AllLockEdges returns every lock-order edge in the index, sorted by
// (From, To, File, Offset) so the lock graph — and therefore cycle
// reporting — is deterministic.
func (ix *Index) AllLockEdges() []LockEdge {
	var out []LockEdge
	for _, keys := range ix.pkgs {
		for _, k := range keys {
			out = append(out, ix.funcs[k].LockEdges...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Site.File != b.Site.File {
			return a.Site.File < b.Site.File
		}
		return a.Site.Offset < b.Site.Offset
	})
	return out
}

// BuildIndex computes summaries for the given packages. Packages are
// processed in import topological order so callee summaries precede
// callers.
func BuildIndex(pkgs []*callgraph.SourcePkg) *Index {
	ix := &Index{funcs: map[string]*FuncSummary{}, pkgs: map[string][]string{}}
	for _, pkg := range callgraph.TopoSort(pkgs) {
		ix.add(pkg.Path, summarizePackage(ix, pkg))
	}
	return ix
}

// add records one package's summaries.
func (ix *Index) add(path string, sums map[string]*FuncSummary) {
	keys := make([]string, 0, len(sums))
	for k, s := range sums {
		ix.funcs[k] = s
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ix.pkgs[path] = keys
}

// summarizePackage computes final summaries for one package, given an
// index already holding every dependency.
func summarizePackage(ix *Index, pkg *callgraph.SourcePkg) map[string]*FuncSummary {
	g := callgraph.Build(pkg)
	local := map[string]*localFacts{}
	sums := map[string]*FuncSummary{}
	for _, k := range g.Keys {
		node := g.Funcs[k]
		local[k] = collectLocal(pkg, node)
		sums[k] = &FuncSummary{}
	}

	// lookup resolves a callee summary: same-package first (the in-flight
	// map, so recursion converges), then the cross-package index.
	lookup := func(key string) *FuncSummary {
		if s, ok := sums[key]; ok {
			return s
		}
		return ix.funcs[key]
	}

	// Fixed point: every derived set only grows and is drawn from a
	// finite universe, so iterate until an entire sweep changes nothing.
	for changed := true; changed; {
		changed = false
		for _, k := range g.Keys {
			if derive(sums[k], local[k], lookup) {
				changed = true
			}
		}
	}
	return sums
}

// derive recomputes s's derived facts from its local facts and current
// callee summaries, reporting whether anything grew.
func derive(s *FuncSummary, lf *localFacts, lookup func(string) *FuncSummary) bool {
	changed := false
	grewStr := func(dst *[]string, v string) {
		if !containsStr(*dst, v) {
			*dst = insertStr(*dst, v)
			changed = true
		}
	}
	grewInt := func(dst *[]int, v int) {
		if !containsInt(*dst, v) {
			*dst = insertInt(*dst, v)
			changed = true
		}
	}

	for _, a := range lf.acquires {
		grewStr(&s.Acquires, a)
	}
	for _, e := range lf.lockEdges {
		if !hasEdge(s.LockEdges, e) {
			s.LockEdges = append(s.LockEdges, e)
			changed = true
		}
	}
	if lf.runsForever && !s.RunsForever {
		s.RunsForever = true
		changed = true
	}
	for _, p := range lf.spawnsParams {
		grewInt(&s.SpawnsParams, p)
	}
	for _, op := range lf.netOps {
		if !hasNetOp(s.Unbounded, op.Site) {
			s.Unbounded = append(s.Unbounded, op)
			changed = true
		}
	}

	for _, c := range lf.calls {
		cs := lookup(c.callee)
		if cs == nil {
			continue
		}
		// Synchronous effects flow up the call edge — but not out of a
		// function literal, whose run time is decoupled from the caller.
		if !c.inLit {
			for _, a := range cs.Acquires {
				grewStr(&s.Acquires, a)
			}
			if cs.RunsForever && !s.RunsForever {
				s.RunsForever = true
				changed = true
			}
		}
		// Lock-order edges: everything the callee may acquire is ordered
		// after every lock held at the call site.
		for _, held := range c.held {
			for _, a := range cs.Acquires {
				e := LockEdge{From: held, To: a, Site: c.site, Via: c.callee}
				if !hasEdge(s.LockEdges, e) {
					s.LockEdges = append(s.LockEdges, e)
					changed = true
				}
			}
		}
		// Unbounded network ops surface with the call chain prepended.
		if len(cs.Unbounded) > 0 && !hasNetOp(s.Unbounded, c.site) {
			op := cs.Unbounded[0]
			via := append([]string{c.callee}, op.Via...)
			if len(via) > maxVia {
				via = via[:maxVia]
			}
			s.Unbounded = append(s.Unbounded, NetOp{Op: op.Op, Site: c.site, Via: via})
			changed = true
		}
		// Spawned parameters forward through passthrough argument positions.
		for _, pa := range c.paramArgs {
			if containsInt(cs.SpawnsParams, pa.argIdx) {
				grewInt(&s.SpawnsParams, pa.paramIdx)
			}
		}
	}
	return changed
}

func containsStr(xs []string, v string) bool {
	i := sort.SearchStrings(xs, v)
	return i < len(xs) && xs[i] == v
}

func insertStr(xs []string, v string) []string {
	i := sort.SearchStrings(xs, v)
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func containsInt(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

func insertInt(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func hasEdge(es []LockEdge, e LockEdge) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

func hasNetOp(ops []NetOp, site Site) bool {
	for _, op := range ops {
		if op.Site == site {
			return true
		}
	}
	return false
}
