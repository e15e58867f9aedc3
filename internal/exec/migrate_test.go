package exec_test

import (
	"fmt"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
)

// killMidStream returns a script that delivers the first n result packets
// a peer sends and then drops every later delivery from it — a crash in
// the middle of streaming, after part of the answer reached the root.
func killMidStream(site pattern.PeerID, n int) *faults.Script {
	return faults.NewScript(&faults.ScriptRule{
		From: site, Kind: "chan.packet", After: n,
		Fault: network.Fault{Drop: true},
	})
}

// A peer dying mid-stream is recovered by migrating just its subtree to
// the surviving peers: no replan, no restart, and the answer matches what
// the from-scratch restart would compute.
func TestMigrationRecoversFailedSubtree(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 1
	p1.Engine.BatchSize = 1
	net.SetInjector(killMidStream("P4", 1))

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute with P4 dying mid-stream: %v", err)
	}
	m := p1.Engine.Metrics()
	if m.Migrations == 0 {
		t.Errorf("expected a subtree migration, got %+v", m)
	}
	if m.Replans != 0 {
		t.Errorf("migration should make replanning unnecessary, got %d replans", m.Replans)
	}
	// Without P4, X comes only from P1 and P2: 2 per i × 3 i = 6 rows.
	if got := rows.Project([]string{"X", "Y"}); got.Len() != 6 {
		t.Errorf("migrated answer = %d rows, want 6:\n%s", got.Len(), got)
	}
	migrated := false
	for _, le := range p1.Engine.Ledger() {
		if le.Outcome == "migrated-away" && le.Site == "P4" {
			migrated = true
		}
	}
	if !migrated {
		t.Error("ledger should record the migrated-away subtree")
	}
}

// The DisableMigration ablation restores the legacy behavior: the same
// mid-stream crash goes through discard-replan-restart, yields the
// identical answer, and re-fetches strictly more rows than migration.
func TestMigrationAblationMatchesRestart(t *testing.T) {
	run := func(restart bool) (*exec.Metrics, string) {
		peers, net := paperSystem(t, 3)
		p1 := peers["P1"]
		p1.Engine.MaxRetries = 1
		p1.Engine.BatchSize = 1
		p1.Engine.DisableMigration = restart
		net.SetInjector(killMidStream("P4", 1))
		pr, err := p1.PlanQuery(gen.PaperQuery())
		if err != nil {
			t.Fatalf("PlanQuery: %v", err)
		}
		rows, err := p1.Engine.Execute(pr.Optimized)
		if err != nil {
			t.Fatalf("Execute (DisableMigration=%v): %v", restart, err)
		}
		m := p1.Engine.Metrics()
		return &m, fmt.Sprint(rows.Project([]string{"X", "Y"}).Sorted())
	}
	mig, migRows := run(false)
	abl, ablRows := run(true)

	if migRows != ablRows {
		t.Errorf("migration and restart answers diverge:\n%s\nvs\n%s", migRows, ablRows)
	}
	if mig.Migrations == 0 || mig.Replans != 0 {
		t.Errorf("migration run: want migrations>0, replans=0, got %+v", mig)
	}
	if abl.Migrations != 0 || abl.Replans == 0 {
		t.Errorf("ablation run: want migrations=0, replans>0, got %+v", abl)
	}
	if mig.RowsRefetched >= abl.RowsRefetched {
		t.Errorf("migration refetched %d rows, restart %d — migration must refetch strictly fewer",
			mig.RowsRefetched, abl.RowsRefetched)
	}
}

// Horizontal siblings — one pattern set answered by several sites — are
// distinct slices of the answer, not refetches: with no fault at all,
// ∪(Q1@P2, Q1@P4) ships two slices and refetches nothing.
func TestHorizontalSiblingsAreNotRefetches(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	q1 := gen.PaperQuery().Patterns[0]
	u := plan.NewUnion(plan.NewScan(q1, "P2"), plan.NewScan(q1, "P4"))
	rows, err := p1.Engine.Execute(&plan.Plan{Root: u, Query: gen.PaperQuery()})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() == 0 {
		t.Fatal("empty answer: the slices shipped nothing")
	}
	m := p1.Engine.Metrics()
	if m.SubplansShipped != 2 {
		t.Errorf("SubplansShipped = %d, want 2", m.SubplansShipped)
	}
	if m.RowsRefetched != 0 {
		t.Errorf("RowsRefetched = %d on a fault-free run, want 0", m.RowsRefetched)
	}
}

// A transient mid-stream failure resumes from the checkpointed row prefix
// instead of re-streaming: the retry carries the watermark-backed row
// count, and the destination skips what the root already holds.
func TestResumeRetryKeepsCheckpointedRows(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 2
	// P4 streams one row per frame (the serving peer's BatchSize sets its
	// frames). Drop exactly one packet: P4's second result row. The retry
	// resumes after row 1.
	peers["P4"].Engine.BatchSize = 1
	net.SetInjector(faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: 1, Count: 1,
		Fault: network.Fault{Drop: true},
	}))

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute with one dropped packet: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("resumed answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	m := p1.Engine.Metrics()
	if m.Retries == 0 {
		t.Error("expected a retry")
	}
	if m.Resumes == 0 {
		t.Errorf("expected the retry to resume from the checkpoint, got %+v", m)
	}
	if m.RowsRetained == 0 {
		t.Error("resume should retain the checkpointed prefix")
	}
	if m.Replans != 0 || m.Migrations != 0 {
		t.Errorf("transient packet loss must not replan or migrate, got %+v", m)
	}
}

// Mid-flight hole filling: a plan generated from stale knowledge executes
// with a @? hole; by execution time the registry has learned providers,
// so the hole is converted into a dispatched subplan while the rest of
// the plan runs — the answer upgrades to complete without a restart.
func TestMidFlightHoleFill(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.AllowPartial = true

	// Plan as if only P2's Q1 coverage were known: Q2 becomes a hole.
	q := gen.PaperQuery()
	ann := pattern.NewAnnotated(q)
	ann.Annotate("Q1", "P2", nil)
	partial, err := plan.Generate(ann)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !plan.HasHoles(partial.Root) {
		t.Fatal("fixture plan should contain a hole for Q2")
	}
	res, err := p1.Engine.ExecuteAnnotated(partial)
	if err != nil {
		t.Fatalf("ExecuteAnnotated: %v", err)
	}
	if !res.Completeness.Complete {
		t.Fatalf("hole should have been filled mid-flight, got unanswered %+v",
			res.Completeness.Unanswered)
	}
	// Q1 only from P2 (1 per i × 3 i), joined with the filled Q2 branch.
	if res.Rows.Len() == 0 {
		t.Fatal("filled plan should produce rows")
	}
	m := p1.Engine.Metrics()
	if m.HolesFilled == 0 || m.PlanChanges == 0 {
		t.Errorf("expected HolesFilled and PlanChanges > 0, got %+v", m)
	}
	if m.Replans != 0 {
		t.Errorf("mid-flight fill must not restart the plan, got %d replans", m.Replans)
	}
}
