// Package driver runs analyzers over loaded packages and applies the
// repo's suppression policy: a diagnostic is silenced only by an
// explicit, reasoned directive
//
//	//lint:allow <analyzer> <reason...>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory — a bare allow is itself a lint error — and a
// directive that suppresses nothing is reported as stale, so allowlist
// entries cannot outlive the code they excused.
package driver

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"

	"sqpeer/internal/lint/analysis"
	"sqpeer/internal/lint/callgraph"
	"sqpeer/internal/lint/load"
	"sqpeer/internal/lint/summary"
)

// Finding is one driver-level result: an analyzer diagnostic (possibly
// suppressed) or a problem with the directives themselves.
type Finding struct {
	// Analyzer names the originating check ("driver" for directive
	// problems).
	Analyzer string
	// Position locates the finding.
	Position token.Position
	// Message states the problem.
	Message string
	// Suppressed marks diagnostics covered by a valid allow directive;
	// suppressed findings do not fail the lint run.
	Suppressed bool
	// Reason carries the directive's justification when Suppressed.
	Reason string
}

// directive is one parsed //lint:allow comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
	bad      bool // malformed: missing analyzer or reason
}

// Stat is one analyzer's cost/yield line for the end-of-run report:
// how long its passes took across all packages and how many findings it
// produced (suppressed ones included, so directive changes don't hide
// cost shifts).
type Stat struct {
	Analyzer   string
	Findings   int
	Suppressed int
	Wall       time.Duration
	// Note replaces the finding columns for pseudo-rows (the shared
	// summary-index build reports its package count here).
	Note string
}

// Stats renders per-analyzer lines sorted by name, so the report is
// deterministic up to the measured durations.
func Stats(stats []Stat) []string {
	sorted := append([]Stat(nil), stats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Analyzer < sorted[j].Analyzer })
	out := make([]string, 0, len(sorted))
	for _, s := range sorted {
		if s.Note != "" {
			out = append(out, fmt.Sprintf("%-14s %-29s %8.1fms",
				s.Analyzer, s.Note, float64(s.Wall.Microseconds())/1000))
			continue
		}
		out = append(out, fmt.Sprintf("%-14s %4d finding(s) %4d suppressed %8.1fms",
			s.Analyzer, s.Findings, s.Suppressed, float64(s.Wall.Microseconds())/1000))
	}
	return out
}

// Run applies every analyzer to every package. scope optionally limits
// an analyzer (by name) to packages whose import path it accepts; absent
// entries run everywhere. Findings come back sorted by position.
func Run(analyzers []*analysis.Analyzer, pkgs []*load.Package, scope map[string]func(pkgPath string) bool) ([]Finding, error) {
	findings, _, err := RunWith(analyzers, pkgs, scope)
	return findings, err
}

// RunWith is Run plus per-analyzer stats. When any analyzer needs
// summaries, the interprocedural index is built once over every loaded
// package and shared by all passes; its build time is reported under
// the pseudo-analyzer name "summaries".
func RunWith(analyzers []*analysis.Analyzer, pkgs []*load.Package, scope map[string]func(pkgPath string) bool) ([]Finding, []Stat, error) {
	var index *summary.Index
	statByName := map[string]*Stat{}
	statOf := func(name string) *Stat {
		s, ok := statByName[name]
		if !ok {
			s = &Stat{Analyzer: name}
			statByName[name] = s
		}
		return s
	}
	for _, a := range analyzers {
		statOf(a.Name)
		if a.NeedsSummaries && index == nil {
			src := make([]*callgraph.SourcePkg, 0, len(pkgs))
			for _, pkg := range pkgs {
				src = append(src, &callgraph.SourcePkg{
					Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files,
					Types: pkg.Types, Info: pkg.Info,
				})
			}
			start := time.Now()
			index = summary.BuildIndex(src)
			s := statOf("summaries")
			s.Wall = time.Since(start)
			s.Note = fmt.Sprintf("%d pkg(s) summarized", len(src))
		}
	}

	var findings []Finding
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg)
		ran := map[string]bool{}
		for _, a := range analyzers {
			if accept, ok := scope[a.Name]; ok && !accept(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if a.NeedsSummaries {
				pass.Summaries = index
			}
			stat := statOf(a.Name)
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				f := Finding{Analyzer: a.Name, Position: pos, Message: d.Message}
				if dir := match(dirs, a.Name, pos); dir != nil {
					dir.used = true
					f.Suppressed = true
					f.Reason = dir.reason
					stat.Suppressed++
				}
				stat.Findings++
				findings = append(findings, f)
			}
			start := time.Now()
			if _, err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			stat.Wall += time.Since(start)
		}
		// Directive hygiene: malformed allows always fail; well-formed
		// allows must have suppressed something (stale-allow check),
		// unless they name an analyzer not run on this package.
		for _, d := range dirs {
			switch {
			case d.bad:
				findings = append(findings, Finding{
					Analyzer: "driver", Position: d.pos,
					Message: "malformed //lint:allow: want //lint:allow <analyzer> <reason>",
				})
			case !d.used && ran[d.analyzer]:
				findings = append(findings, Finding{
					Analyzer: "driver", Position: d.pos,
					Message: fmt.Sprintf("stale //lint:allow %s: no %s diagnostic here to suppress", d.analyzer, d.analyzer),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	stats := make([]Stat, 0, len(statByName))
	for _, s := range statByName {
		stats = append(stats, *s)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Analyzer < stats[j].Analyzer })
	return findings, stats, nil
}

// collectDirectives parses every //lint:allow comment in the package.
func collectDirectives(pkg *load.Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				d := &directive{pos: pkg.Fset.Position(c.Pos())}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					d.bad = true
				} else {
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// match finds an unused-or-used directive for analyzer covering pos: the
// same line or the line directly above, in the same file.
func match(dirs []*directive, analyzer string, pos token.Position) *directive {
	for _, d := range dirs {
		if d.bad || d.analyzer != analyzer || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			return d
		}
	}
	return nil
}

// Format renders one finding in the conventional file:line:col style.
func (f Finding) Format() string {
	s := fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", f.Reason)
	}
	return s
}

// Failing filters findings down to the ones that should fail the run.
func Failing(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
