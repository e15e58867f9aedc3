package exec_test

import (
	"errors"
	"fmt"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// paperSystem builds the Figure-2 peers (P1..P4 with their bases) on one
// network, everyone knowing everyone's advertisement, and returns them.
func paperSystem(t testing.TB, pairs int) (map[pattern.PeerID]*peer.Peer, *network.Network) {
	t.Helper()
	schema := gen.PaperSchema()
	bases := gen.PaperBases(pairs)
	net := network.New()
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id]}, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		peers[id] = p
	}
	// Full knowledge: everyone learns everyone.
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	return peers, net
}

// groundTruth evaluates the query centrally over the union of all bases.
func groundTruth(t testing.TB, peers map[pattern.PeerID]*peer.Peer, rqlText string) *rql.ResultSet {
	t.Helper()
	merged := rdf.NewBase()
	for _, p := range peers {
		for _, tr := range p.Base.Triples() {
			merged.Add(tr)
		}
	}
	c, err := rql.ParseAndAnalyze(rqlText, gen.PaperSchema())
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	rs, err := rql.Eval(c, merged)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return rs
}

func sameRows(a, b *rql.ResultSet) bool {
	return fmt.Sprint(a.Sorted()) == fmt.Sprint(b.Sorted())
}

// TestExecuteFigure3Plan runs the paper's Figure-3 scenario end to end:
// P1 generates the plan from the Figure-2 annotation and executes it,
// deploying one channel per contributing peer.
func TestExecuteFigure3Plan(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if pr.Raw.String() != "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))" {
		t.Fatalf("raw plan = %s", pr.Raw)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Per join key y_i there are 3 X resources (from P1, P2, P4); the
	// projection keeps (X, Y), so 3 pairs per i and 3 i values.
	if rows.Len() != 9 {
		t.Fatalf("distributed answer = %d rows, want 9:\n%s", rows.Len(), rows)
	}
	// One channel per distinct remote peer (P2, P3, P4).
	m := p1.Engine.Metrics()
	if m.ChannelsOpened != 3 {
		t.Errorf("ChannelsOpened = %d, want 3 (one per remote peer)", m.ChannelsOpened)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Errorf("distributed ≠ centralized:\n%s\nvs\n%s", rows, want)
	}
}

// TestExecutionEquivalentAcrossPolicies: all three shipping policies must
// produce the same answer, differing only in where joins run.
func TestExecutionEquivalentAcrossPolicies(t *testing.T) {
	for _, policy := range []optimizer.ShippingPolicy{
		optimizer.DataShipping, optimizer.QueryShipping, optimizer.HybridShipping,
	} {
		peers, _ := paperSystem(t, 4)
		p1 := peers["P1"]
		p1.Engine.Policy = policy
		rows, err := p1.Ask(gen.PaperRQL)
		if err != nil {
			t.Fatalf("%s: Ask: %v", policy, err)
		}
		want := groundTruth(t, peers, gen.PaperRQL)
		if !sameRows(rows, want) {
			t.Errorf("%s: wrong answer:\n%s\nvs\n%s", policy, rows, want)
		}
	}
}

// TestOptimizedPlanPreservesAnswers: Figure 4's rewrites must not change
// the result (algebraic equivalence).
func TestOptimizedPlanPreservesAnswers(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	raw, err := p1.Engine.Execute(pr.Raw)
	if err != nil {
		t.Fatalf("Execute raw: %v", err)
	}
	opt, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute optimized: %v", err)
	}
	if !sameRows(raw.Project([]string{"X", "Y"}), opt.Project([]string{"X", "Y"})) {
		t.Errorf("rewrites changed answers:\nraw: %s\nopt: %s", raw, opt)
	}
}

func TestExecuteRejectsHoles(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	q := gen.PaperQuery()
	ann := pattern.NewAnnotated(q)
	ann.Annotate("Q1", "P2", nil)
	partial, err := plan.Generate(ann)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	_, err = p1.Engine.Execute(partial)
	var he *exec.HoleError
	if !errors.As(err, &he) {
		t.Fatalf("want HoleError, got %v", err)
	}
	if len(he.PatternIDs) != 1 || he.PatternIDs[0] != "Q2" {
		t.Errorf("HoleError = %v", he)
	}
}

// TestRunTimeAdaptationOnPeerFailure reproduces CLAIM-ADAPT: P4 dies
// after routing; execution recovers around it — surgically migrating the
// failed subtree when an alternate peer covers it, falling back to the
// ubQL discard + re-route restart otherwise — and completes with the
// surviving peers' data.
func TestRunTimeAdaptationOnPeerFailure(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	net.Fail("P4")
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute after P4 failure: %v", err)
	}
	m := p1.Engine.Metrics()
	if m.Replans == 0 && m.Migrations == 0 {
		t.Error("no replan or migration recorded despite peer failure")
	}
	// Without P4, X comes only from P1 and P2: 2 per i × 3 i = 6 rows.
	got := rows.Project([]string{"X", "Y"})
	if got.Len() != 6 {
		t.Errorf("adapted answer = %d rows, want 6:\n%s", got.Len(), got)
	}
	// The failed peer must be forgotten by the router.
	if _, known := p1.Registry.Get("P4"); known {
		t.Error("failed peer still in registry")
	}
}

func TestAdaptationFailsWithoutAlternatives(t *testing.T) {
	peers, net := paperSystem(t, 2)
	p1 := peers["P1"]
	// Strip P1's own prop2 and P4 from knowledge so only P3 answers Q2.
	p1.Registry.Unregister("P4")
	p1.Registry.Unregister("P1")
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	net.Fail("P3")
	_, err = p1.Engine.Execute(pr.Optimized)
	if err == nil {
		t.Fatal("execution succeeded despite unrecoverable failure")
	}
}

func TestMergedScanExecutesLocalJoin(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p4 := peers["P4"]
	q := gen.PaperQuery()
	merged := &plan.Plan{
		Root:  &plan.Scan{Patterns: q.Patterns, Peer: "P4"},
		Query: q,
	}
	rows, err := p4.Engine.Execute(merged)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// P4's prop4 pairs join its prop2 pairs on y_i: 3 rows.
	if rows.Len() != 3 {
		t.Errorf("merged scan = %d rows, want 3:\n%s", rows.Len(), rows)
	}
}

func TestRemoteMergedScan(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	q := gen.PaperQuery()
	remote := &plan.Plan{
		Root:  &plan.Scan{Patterns: q.Patterns, Peer: "P4"},
		Query: q,
	}
	rows, err := p1.Engine.Execute(remote)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 2 {
		t.Errorf("remote merged scan = %d rows, want 2:\n%s", rows.Len(), rows)
	}
	if m := p1.Engine.Metrics(); m.SubplansShipped != 1 || m.RowsShipped != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestQueryShippingShipsJoin(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Policy = optimizer.QueryShipping
	q := gen.PaperQuery()
	// Plan with both scans remote: the join itself must be shipped.
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	rows, err := p1.Engine.Execute(&plan.Plan{Root: j, Query: q})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// P2's prop1 objects are shared y_i; P3's prop2 subjects are y_i: 3
	// joined rows projected to (X, Y).
	if got := rows.Len(); got != 3 {
		t.Errorf("query-shipped join = %d rows:\n%s", got, rows)
	}
	// The join was shipped: exactly one subplan left P1 directly.
	m := p1.Engine.Metrics()
	if m.SubplansShipped != 1 {
		t.Errorf("SubplansShipped = %d, want 1 (the whole join)", m.SubplansShipped)
	}
}

func TestExecuteEmptyAnswer(t *testing.T) {
	peers, _ := paperSystem(t, 0) // empty bases
	p1 := peers["P1"]
	reg := p1.Registry
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		as := gen.PaperActiveSchemas()[id]
		reg.Register(id, as)
	}
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 0 {
		t.Errorf("empty bases produced %d rows", rows.Len())
	}
}

func TestResultStreamingBatches(t *testing.T) {
	peers, net := paperSystem(t, 7)
	p1, p2 := peers["P1"], peers["P2"]
	p2.Engine.BatchSize = 2 // P2 answers subplans in 2-row packets
	q := gen.PaperQuery()
	remote := &plan.Plan{Root: plan.NewScan(q.Patterns[0], "P2"), Query: q}
	net.ResetCounters()
	rows, err := p1.Engine.Execute(remote)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 7 {
		t.Fatalf("rows = %d", rows.Len())
	}
	// 7 rows in 2-row batches = 4 Results packets; the last is final and
	// carries the statistics.
	if got := net.Counters().PerKind["chan.packet"]; got != 4 {
		t.Errorf("chan.packet count = %d, want 4 (4 batches, the last final)", got)
	}
	// The piggybacked statistics refreshed P1's catalog entry for P2.
	if p1.Catalog.Card("P2", gen.N1("prop1")) != 7 {
		t.Errorf("piggybacked stats not applied: card=%d", p1.Catalog.Card("P2", gen.N1("prop1")))
	}
}

func TestResultStreamingEmptySet(t *testing.T) {
	peers, _ := paperSystem(t, 0)
	p1 := peers["P1"]
	q := gen.PaperQuery()
	remote := &plan.Plan{Root: plan.NewScan(q.Patterns[0], "P2"), Query: q}
	rows, err := p1.Engine.Execute(remote)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 0 {
		t.Errorf("rows = %d", rows.Len())
	}
}
