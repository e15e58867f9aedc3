package exec_test

import (
	"runtime"
	"sync"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rql"
)

// TestConcurrentExecutesOnSameEngine drives several Execute calls through
// one engine simultaneously (run with -race): per-execution state must be
// isolated, shared engine/channel/network state properly guarded, and
// every caller must get the full answer.
func TestConcurrentExecutesOnSameEngine(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	var wg sync.WaitGroup
	results := make([]*rql.ResultSet, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p1.Engine.Execute(pr.Optimized)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("Execute #%d: %v", i, errs[i])
		}
		if !sameRows(results[i], want) {
			t.Errorf("Execute #%d diverged from ground truth", i)
		}
	}
}

// goroutineProbe is a scan source that reads the process's goroutine
// count inside every scan it answers.
type goroutineProbe struct {
	exec.BatchSource
	mu     sync.Mutex
	counts []int
}

func (g *goroutineProbe) EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	g.counts = append(g.counts, n)
	g.mu.Unlock()
	return g.BatchSource.EvalScanBatch(patterns, store)
}

// TestOneGoroutinePerQuery runs a union far wider than the plan it
// repeats, with every peer's scans probed: the root's own scans and the
// ones serving peers run for its subplans must all see the goroutine
// count of before the query, because the walk, the in-process deliveries
// and the serving peers' executions all run on the querying goroutine.
// The answer is the centralized one.
func TestOneGoroutinePerQuery(t *testing.T) {
	peers, _ := paperSystem(t, 5)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	probes := map[pattern.PeerID]*goroutineProbe{}
	for id, p := range peers {
		probes[id] = &goroutineProbe{BatchSource: p.Engine.Local}
		p.Engine.Local = probes[id]
	}
	// Union of several clones of the plan root: semantically idempotent.
	wide := &plan.Plan{
		Root: &plan.Union{Inputs: []plan.Node{
			pr.Optimized.Root, pr.Optimized.Root, pr.Optimized.Root,
			pr.Optimized.Root, pr.Optimized.Root, pr.Optimized.Root,
		}},
		Query: pr.Optimized.Query,
	}
	before := runtime.NumGoroutine()
	rows, err := p1.Engine.Execute(wide)
	if err != nil {
		t.Fatalf("Execute(wide): %v", err)
	}
	if want := groundTruth(t, peers, gen.PaperRQL); !sameRows(rows, want) {
		t.Errorf("wide union diverged from ground truth:\n%s\nvs\n%s", rows, want)
	}
	scans := 0
	for id, probe := range probes {
		for i, n := range probe.counts {
			if n != before {
				t.Errorf("%s's scan %d ran among %d goroutines, %d before the query", id, i, n, before)
			}
		}
		scans += len(probe.counts)
	}
	if len(probes["P1"].counts) < 6 || scans == len(probes["P1"].counts) {
		t.Fatalf("vacuous: %d scans, %d of them the root's", scans, len(probes["P1"].counts))
	}
}
