// Package analysistest runs one analyzer over fixture packages and
// checks its diagnostics against `// want` annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest (unavailable offline).
//
// Fixtures live under <testdata>/src/<pkgpath>/*.go. A line expecting
// diagnostics carries one trailing comment of the form
//
//	// want "regexp" "regexp2"
//
// with one quoted regexp per expected diagnostic on that line. The run
// fails on any unmatched expectation (so a disabled or broken analyzer
// fails its fixture suite) and on any unexpected diagnostic. Standard
// library imports resolve through the compiler's source importer; any
// other import path resolves to a sibling fixture package under
// <testdata>/src, letting fixtures model sqpeer packages like network.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sqpeer/internal/lint/analysis"
	"sqpeer/internal/lint/callgraph"
	"sqpeer/internal/lint/load"
	"sqpeer/internal/lint/summary"
)

// T is the slice of *testing.T this package needs. It exists so the
// package's own tests can substitute a recorder and prove the property
// the fixtures are for: a disabled analyzer fails its suite.
type T interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Run applies a to each fixture package path and reports mismatches on t.
func Run(t T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		root: filepath.Join(testdata, "src"),
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		done: map[string]*fixturePkg{},
	}
	for _, path := range pkgpaths {
		pkg, err := imp.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		var index *summary.Index
		if a.NeedsSummaries {
			// The importer's memo now holds the fixture package and every
			// fixture dependency it pulled in; summarize them all so the
			// interprocedural analyzers see cross-package facts exactly as
			// the driver builds them.
			index = summary.BuildIndex(imp.sourcePkgs())
		}
		check(t, a, fset, pkg, index)
	}
}

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// fixtureImporter resolves std imports via the source importer and
// everything else from the testdata tree, memoized.
type fixtureImporter struct {
	root string
	fset *token.FileSet
	std  types.Importer
	done map[string]*fixturePkg
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(fi.root, path)
	if _, err := os.Stat(dir); err != nil {
		return fi.std.Import(path)
	}
	pkg, err := fi.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.types, nil
}

// load parses and type-checks one fixture package from testdata/src.
func (fi *fixtureImporter) load(path string) (*fixturePkg, error) {
	if pkg, ok := fi.done[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: fi}
	tpkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	pkg := &fixturePkg{path: path, files: files, types: tpkg, info: info}
	fi.done[path] = pkg
	return pkg, nil
}

// sourcePkgs adapts every memoized fixture package for the summary
// builder, sorted for determinism (BuildIndex topo-sorts anyway).
func (fi *fixtureImporter) sourcePkgs() []*callgraph.SourcePkg {
	paths := make([]string, 0, len(fi.done))
	for p := range fi.done {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*callgraph.SourcePkg, 0, len(paths))
	for _, p := range paths {
		pkg := fi.done[p]
		out = append(out, &callgraph.SourcePkg{
			Path: p, Fset: fi.fset, Files: pkg.files, Types: pkg.types, Info: pkg.info,
		})
	}
	return out
}

// expectation is one want regexp with its match state.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	line    int
	matched bool
}

// check runs the analyzer on one fixture package and diffs diagnostics
// against the // want annotations.
func check(t T, a *analysis.Analyzer, fset *token.FileSet, pkg *fixturePkg, index *summary.Index) {
	t.Helper()
	wants := map[string][]*expectation{} // filename -> expectations
	for _, f := range pkg.files {
		name := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				pats, err := parseWants(rest)
				if err != nil {
					t.Errorf("%s:%d: bad want comment: %v", name, line, err)
					continue
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", name, line, p, err)
						continue
					}
					wants[name] = append(wants[name], &expectation{re: re, raw: p, line: line})
				}
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.files,
		Pkg:       pkg.types,
		TypesInfo: pkg.info,
		Summaries: index,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants[pos.Filename] {
			if !w.matched && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var names []string
	for name := range wants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, w := range wants[name] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", name, w.line, w.raw)
			}
		}
	}
}

// parseWants splits `"re1" "re2"` (or backquoted regexps, the x/tools
// convention) into the individual patterns.
func parseWants(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
		end := 1
		for end < len(s) {
			if quote == '"' && s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == quote {
				break
			}
			end++
		}
		if end >= len(s) {
			return nil, fmt.Errorf("unterminated regexp in %q", s)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no regexps")
	}
	return out, nil
}
