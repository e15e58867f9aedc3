// Command sqpeer-lint is the repo's static-analysis gate: eleven
// SQPeer-specific analyzers enforcing the determinism, logical-clock,
// failure-domain, concurrency and observability invariants of DESIGN.md
// §9 over the packages matched by its arguments (default ./...).
//
// Intraprocedural suite:
//
//	walltime       no wall-clock reads/sleeps in internal packages
//	seededrand     no global math/rand source; explicit seeds only
//	maporder       map iteration order must not leak into output
//	errclass       errors compared with errors.Is, never ==/!= or strings
//	locksafe       no blocking ops while a sync (RW)Mutex is held
//	obsspan        obs spans closed on every return path
//	jsonrow        no JSON of row-carrying rql types on the data plane
//
// Interprocedural tier (cross-package function summaries, see
// internal/lint/summary; cacheable via -summary-cache):
//
//	lockorder      mutex acquisition-order graph must be acyclic
//	bufsafe        pooled wire-buffer lifecycle (double-put, use-after-put,
//	               put-of-escaped)
//	deadlinebound  RPC paths must carry deadlines (CallWithin/SendWithin)
//	goroleak       every spawned goroutine needs a bounded exit
//
// A diagnostic is suppressed only by `//lint:allow <analyzer> <reason>`
// on the offending or preceding line; reasons are mandatory and stale
// directives are errors. Standard passes (copylocks and friends) run via
// `go vet` in the Makefile's lint target; this binary adds only the
// checks the toolchain does not ship. Every run ends with a per-analyzer
// wall-time and finding-count report (sorted by analyzer, so diffable);
// -report also writes it to a file for CI artifacts. Exit status: 0
// clean, 1 findings, 2 operational failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sqpeer/internal/lint/analysis"
	"sqpeer/internal/lint/analyzers/bufsafe"
	"sqpeer/internal/lint/analyzers/deadlinebound"
	"sqpeer/internal/lint/analyzers/errclass"
	"sqpeer/internal/lint/analyzers/goroleak"
	"sqpeer/internal/lint/analyzers/jsonrow"
	"sqpeer/internal/lint/analyzers/lockorder"
	"sqpeer/internal/lint/analyzers/locksafe"
	"sqpeer/internal/lint/analyzers/maporder"
	"sqpeer/internal/lint/analyzers/obsspan"
	"sqpeer/internal/lint/analyzers/seededrand"
	"sqpeer/internal/lint/analyzers/walltime"
	"sqpeer/internal/lint/driver"
	"sqpeer/internal/lint/load"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	walltime.Analyzer,
	seededrand.Analyzer,
	maporder.Analyzer,
	errclass.Analyzer,
	locksafe.Analyzer,
	obsspan.Analyzer,
	jsonrow.Analyzer,
	lockorder.Analyzer,
	bufsafe.Analyzer,
	deadlinebound.Analyzer,
	goroleak.Analyzer,
}

// scope restricts the clock and randomness invariants to the middleware
// proper: cmd/ mains and examples may read the wall clock to report
// to humans. Determinism analyzers (maporder, errclass, locksafe) run
// everywhere. The lint framework itself is exempt from walltime (it is
// tooling, not simulation). The interprocedural tier runs over internal/
// — deadlinebound excluding the network package itself, whose Call/Send
// bodies implement the deadline-free wrappers rather than use them.
var scope = map[string]func(string) bool{
	"walltime":      isInternal,
	"seededrand":    isInternal,
	"obsspan":       isInternal,
	"jsonrow":       isDataPlane,
	"lockorder":     isInternal,
	"bufsafe":       isInternal,
	"goroleak":      isInternal,
	"deadlinebound": isDeadlineScope,
}

func isInternal(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") &&
		!strings.Contains(pkgPath, "/internal/lint")
}

// isDataPlane scopes jsonrow to the packages that move rows between
// peers: only there does JSON-encoding a row type reintroduce the wire
// format the batch plane replaced. Facade users (harness, examples,
// tests elsewhere) may JSON rows for artifacts and goldens freely.
func isDataPlane(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "/internal/exec") ||
		strings.HasSuffix(pkgPath, "/internal/channel") ||
		strings.HasSuffix(pkgPath, "/internal/overlay")
}

// isDeadlineScope is isInternal minus the transport implementation.
func isDeadlineScope(pkgPath string) bool {
	return isInternal(pkgPath) && !strings.HasSuffix(pkgPath, "/internal/network")
}

func main() {
	showAllowed := flag.Bool("show-allowed", false, "also print suppressed diagnostics with their reasons")
	list := flag.Bool("help-analyzers", false, "list analyzers and exit")
	cacheDir := flag.String("summary-cache", "", "directory for the interprocedural summary cache (empty = no cache)")
	reportFile := flag.String("report", "", "also write the per-analyzer stats report to this file")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqpeer-lint:", err)
		os.Exit(2)
	}
	findings, stats, err := driver.RunWith(analyzers, pkgs, scope, driver.Options{
		SummaryCacheDir: *cacheDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqpeer-lint:", err)
		os.Exit(2)
	}
	failing := driver.Failing(findings)
	for _, f := range findings {
		if f.Suppressed && !*showAllowed {
			continue
		}
		fmt.Println(f.Format())
	}

	report := driver.Stats(stats)
	fmt.Println("--- analyzer report ---")
	for _, line := range report {
		fmt.Println(line)
	}
	if *reportFile != "" {
		if err := os.WriteFile(*reportFile, []byte(strings.Join(report, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sqpeer-lint: writing report:", err)
			os.Exit(2)
		}
	}

	if n := len(findings) - len(failing); n > 0 && !*showAllowed {
		fmt.Fprintf(os.Stderr, "sqpeer-lint: %d suppressed (run with -show-allowed to list)\n", n)
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "sqpeer-lint: %d finding(s) in %d package(s)\n", len(failing), len(pkgs))
		os.Exit(1)
	}
}
