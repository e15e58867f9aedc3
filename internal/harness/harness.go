// Package harness implements the experiment suite of DESIGN.md §4: one
// reproducible experiment per paper figure (FIG-1 … FIG-7) plus the
// quantified-claim experiments (CLAIM-SON, CLAIM-SUB, CLAIM-ADAPT,
// CLAIM-DIST). Each experiment builds its own deterministic system,
// exercises it, and emits paper-style result rows. The cmd/sqpeer-bench
// binary prints reports; EXPERIMENTS.md records their outcomes against
// the paper's claims.
package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment id (e.g. "fig2", "son").
	ID string
	// Title says what the experiment reproduces.
	Title string
	// Lines are the result rows, ready to print.
	Lines []string
	// Pass aggregates the experiment's self-checks: true when every
	// reproduced figure/claim matched the paper's statement.
	Pass bool
}

func (r *Report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// check records a named self-check; any failure flips Pass.
func (r *Report) check(name string, ok bool) {
	status := "OK "
	if !ok {
		status = "FAIL"
		r.Pass = false
	}
	r.linef("  [%s] %s", status, name)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", strings.ToUpper(r.ID), r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	verdict := "REPRODUCED"
	if !r.Pass {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(&b, "--- %s: %s\n", strings.ToUpper(r.ID), verdict)
	return b.String()
}

// experiments maps ids to runners; registered in init functions of the
// per-experiment files.
var experiments = map[string]struct {
	title string
	run   func() *Report
}{}

func register(id, title string, run func() *Report) {
	experiments[id] = struct {
		title string
		run   func() *Report
	}{title, run}
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string) (*Report, error) {
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.run(), nil
}

// All executes every experiment in id order.
func All() []*Report {
	var out []*Report
	for _, id := range IDs() {
		r, _ := Run(id)
		out = append(out, r)
	}
	return out
}
