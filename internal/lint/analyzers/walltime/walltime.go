// Package walltime forbids wall-clock reads and sleeps in the SQPeer
// middleware. Every cost the reproduction argues about (latency,
// deadlines, retry backoff) is charged to the simulated logical clock
// (network.Counters.SimulatedMS, CallWithin deadlines), so a stray
// time.Now or time.Sleep makes same-seed reruns diverge and couples
// results to host load. The one legitimate exception, the debugsrv
// uptime shim (operator-facing wall time that never feeds results),
// carries //lint:allow walltime directives at its definition site.
package walltime

import (
	"go/ast"

	"sqpeer/internal/lint/analysis"
)

// forbidden lists package time functions that read or wait on the wall
// clock. Pure constructors/conversions (time.Duration, time.Unix) and
// formatting stay legal.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Analyzer flags wall-clock use; see the package comment.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock time (time.Now/Sleep/Since/...) in internal packages; use the logical clock",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, sel)
			if analysis.PkgFunc(fn, "time") && forbidden[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s is forbidden here: charge the logical clock (network SimulatedMS / CallWithin) or use the allowlisted debugsrv uptime shim", fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
