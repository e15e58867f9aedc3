// Command sqpeer-bench reproduces the paper's evaluation: one experiment
// per figure (fig1..fig7) plus the quantified-claim experiments (son,
// sub, adapt, dist, adv, ...). Each experiment prints paper-style result
// rows and self-checks whether the reproduced behavior matches the
// paper's statement.
//
// Usage:
//
//	sqpeer-bench                    # run everything
//	sqpeer-bench -exp fig4          # run one experiment
//	sqpeer-bench -list              # list experiment ids
//	sqpeer-bench -trace trace.json  # chrome://tracing file + .jsonl sibling
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sqpeer/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (or 'all')")
	list := flag.Bool("list", false, "list experiment ids and exit")
	tracePath := flag.String("trace", "", "run a traced Figure-3 query, write the chrome://tracing trace_event file here (plus a .jsonl sibling) and exit")
	flag.Parse()

	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}
	var reports []*harness.Report
	if *exp == "all" {
		reports = harness.All()
	} else {
		r, err := harness.Run(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		reports = []*harness.Report{r}
	}
	failed := 0
	for _, r := range reports {
		fmt.Println(r)
		if !r.Pass {
			failed++
		}
	}
	fmt.Printf("%d/%d experiments reproduced\n", len(reports)-failed, len(reports))
	if failed > 0 {
		os.Exit(1)
	}
}

// writeTrace captures one traced paper query and writes both export
// formats: the chrome://tracing (Perfetto) trace_event file at path and
// the deterministic JSONL span listing next to it. The critical-path
// attribution prints to stdout.
func writeTrace(path string) error {
	b := harness.CaptureTrace()
	if err := os.WriteFile(path, b.ChromeJSON, 0o644); err != nil {
		return err
	}
	jsonl := strings.TrimSuffix(path, ".json") + ".jsonl"
	if err := os.WriteFile(jsonl, b.JSONL, 0o644); err != nil {
		return err
	}
	fmt.Print(b.Report)
	fmt.Printf("wrote %s and %s\n", path, jsonl)
	return nil
}
