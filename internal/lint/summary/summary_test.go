package summary_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sqpeer/internal/lint/callgraph"
	"sqpeer/internal/lint/load"
	"sqpeer/internal/lint/summary"
)

// treeLoader loads packages from an on-disk tree (root/<path>/*.go),
// resolving std imports through the source importer — the same shape the
// driver and analysistest feed BuildIndex.
type treeLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	done map[string]*callgraph.SourcePkg
}

func newTreeLoader(root string) *treeLoader {
	fset := token.NewFileSet()
	return &treeLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		done: map[string]*callgraph.SourcePkg{},
	}
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, path)); err != nil {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (l *treeLoader) load(path string) (*callgraph.SourcePkg, error) {
	if pkg, ok := l.done[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &callgraph.SourcePkg{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.done[path] = pkg
	return pkg, nil
}

// loadTree loads the given package paths (plus anything they import from
// the tree) and returns every loaded package.
func loadTree(t *testing.T, root string, paths ...string) []*callgraph.SourcePkg {
	t.Helper()
	l := newTreeLoader(root)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
	}
	keys := make([]string, 0, len(l.done))
	for k := range l.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*callgraph.SourcePkg, 0, len(keys))
	for _, k := range keys {
		out = append(out, l.done[k])
	}
	return out
}

// writeTree materializes path→source pairs under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		full := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Mutual recursion: b acquires the lock, a reaches it only through the
// a→b→a cycle. The in-package fixed point must converge with both
// functions reporting the acquisition.
func TestFixedPointRecursion(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"p/p.go": `package p

import "sync"

type S struct{ mu sync.Mutex }

func a(s *S, n int) {
	if n > 0 {
		b(s, n-1)
	}
}

func b(s *S, n int) {
	s.mu.Lock()
	s.mu.Unlock()
	a(s, n)
}
`,
	})
	ix := summary.BuildIndex(loadTree(t, root, "p"))
	for _, fn := range []string{"p.a", "p.b"} {
		sum := ix.Func(fn)
		if sum == nil {
			t.Fatalf("no summary for %s", fn)
		}
		if !reflect.DeepEqual(sum.Acquires, []string{"p.S.mu"}) {
			t.Errorf("%s.Acquires = %v, want [p.S.mu]", fn, sum.Acquires)
		}
	}
}

// Lock identities come in three shapes: struct field, package-level
// variable, and embedded mutex (identified by the embedding type).
func TestLockIDShapes(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"q/q.go": `package q

import "sync"

type S struct{ mu sync.Mutex }

var gmu sync.Mutex

type E struct{ sync.Mutex }

func f(s *S) { s.mu.Lock(); s.mu.Unlock() }

func g() { gmu.Lock(); gmu.Unlock() }

func (e *E) h() { e.Lock(); e.Unlock() }
`,
	})
	ix := summary.BuildIndex(loadTree(t, root, "q"))
	for fn, want := range map[string]string{
		"q.f":      "q.S.mu",
		"q.g":      "q.gmu",
		"(*q.E).h": "q.E",
	} {
		sum := ix.Func(fn)
		if sum == nil {
			t.Fatalf("no summary for %s", fn)
		}
		if !reflect.DeepEqual(sum.Acquires, []string{want}) {
			t.Errorf("%s.Acquires = %v, want [%s]", fn, sum.Acquires, want)
		}
	}
}
