package exec_test

import (
	"reflect"
	"strings"
	"testing"

	"sqpeer/internal/admission"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rql"
)

// Mixed union branches in one query: Q1 answered completely via P2,
// while every peer covering Q2 is either dead (P3, P4) or shedding work
// at admission (P1). The three distinct Q2 failure causes must merge
// into ONE deduplicated Unanswered entry, and the Q1 rows still arrive.
func TestCompletenessMergeMixedBranches(t *testing.T) {
	peers, net := paperSystem(t, 3)
	p0, err := peer.New(peer.Config{
		ID: "P0", Kind: peer.ClientPeer, Schema: gen.PaperSchema(),
		Options:    exec.Options{MaxRetries: 1, AllowPartial: true},
		Quarantine: true,
	}, net)
	if err != nil {
		t.Fatalf("peer.New(P0): %v", err)
	}
	for _, p := range peers {
		p0.Learn(p.Advertisement())
	}

	// P1 (covers Q1 and Q2) rejects all incoming work: its controller is
	// saturated by one never-expiring lease. Rejections classify as
	// transient overload, so the root retries once, then migrates.
	p1ctl := admission.NewController(admission.Config{MaxConcurrent: 1, HoldMS: 1000})
	if err := p1ctl.AdmitWork(admission.QoS{Tenant: "squatter"}); err != nil {
		t.Fatalf("pre-saturating P1: %v", err)
	}
	peers["P1"].Engine.Admission = p1ctl
	// P3 and P4 (the other Q2 coverage) fail outright.
	net.Fail("P3")
	net.Fail("P4")

	res, err := p0.AskAnnotated(gen.PaperRQL)
	if err != nil {
		t.Fatalf("AskAnnotated: %v", err)
	}
	if res.Completeness.Complete {
		t.Fatal("Q2 unanswerable: result must be incomplete")
	}
	if res.Rows.Len() == 0 {
		t.Error("Q1 is answerable via P2: partial answer should carry rows")
	}
	// Dedup: three Q2 branches failed three ways; one annotation entry.
	un := res.Completeness.Unanswered
	if len(un) != 1 || un[0].PatternID != "Q2" {
		t.Fatalf("Unanswered = %+v, want exactly one deduplicated Q2 entry", un)
	}
	if un[0].Reason == "" {
		t.Error("unanswered entry should carry a reason")
	}
	if m := peers["P1"].Engine.Metrics(); m.OverloadRejected == 0 {
		t.Error("P1 should have rejected work at admission")
	}
}

// Root-side priority shedding: with the root's own controller saturated
// past the low watermark, a low-priority query sheds every remote
// subplan into completeness holes. Unanswered comes back sorted by
// pattern id and deduplicated across the union branches (three branch
// sites per pattern, one entry per pattern).
func TestCompletenessShedBranchesSortedDeduped(t *testing.T) {
	peers, net := paperSystem(t, 3)
	ctl := admission.NewController(admission.Config{MaxConcurrent: 4, HoldMS: 1000})
	p0, err := peer.New(peer.Config{
		ID: "P0", Kind: peer.ClientPeer, Schema: gen.PaperSchema(),
		Options:   exec.Options{AllowPartial: true},
		Admission: ctl,
	}, net)
	if err != nil {
		t.Fatalf("peer.New(P0): %v", err)
	}
	for _, p := range peers {
		p0.Learn(p.Advertisement())
	}
	// Occupancy 3 of 4: strictly above the low watermark (0.5*4 = 2).
	// The facade would reject a fresh Low query at this point, so drive
	// the engine directly — the shed path exists for exactly the query
	// that was admitted under the watermark and then overtaken by
	// higher-priority arrivals before its subplans dispatched.
	for i := 0; i < 3; i++ {
		if err := ctl.AdmitWork(admission.QoS{Tenant: "gold", Priority: admission.High}); err != nil {
			t.Fatalf("pre-load %d: %v", i, err)
		}
	}

	pr, err := p0.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	_, comp, err := p0.Engine.ExecuteBatch(pr.Optimized, nil, admission.QoS{Tenant: "bronze", Priority: admission.Low})
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if comp.Complete {
		t.Fatal("all branches shed: result must be incomplete")
	}
	un := comp.Unanswered
	if len(un) != 2 || un[0].PatternID != "Q1" || un[1].PatternID != "Q2" {
		t.Fatalf("Unanswered = %+v, want deduplicated [Q1 Q2] in sorted order", un)
	}
	for _, u := range un {
		if !strings.HasPrefix(u.Reason, "shed:") {
			t.Errorf("pattern %s reason %q should identify the shed", u.PatternID, u.Reason)
		}
	}
	m := p0.Engine.Metrics()
	if m.Shed == 0 {
		t.Error("expected shed subplans in metrics")
	}
	// The shed is visible in the ledger as its own outcome, and the
	// controller accounted it to the shedding tenant.
	shedEntries := 0
	for _, le := range p0.Engine.Ledger() {
		if le.Outcome == "shed" {
			shedEntries++
		}
	}
	if shedEntries == 0 {
		t.Error("ledger should record shed outcomes")
	}
	// High priority never sheds, even at full occupancy: the same query
	// asked as High (occupancy 3 < 4 admits it) completes fully.
	resHigh, err := p0.AskAnnotatedAs(gen.PaperRQL, admission.QoS{Tenant: "gold", Priority: admission.High})
	if err != nil {
		t.Fatalf("high-priority AskAnnotatedAs: %v", err)
	}
	if !resHigh.Completeness.Complete {
		t.Fatalf("high priority must not shed, got Unanswered %+v", resHigh.Completeness.Unanswered)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(resHigh.Rows, want) {
		t.Fatalf("high-priority answer diverged:\n got %v\nwant %v", resHigh.Rows.Sorted(), want.Sorted())
	}
}

// An engine without a router keeps its holes in the plan and answers
// them as absent branches under AllowPartial: the join answers its
// remaining input, and an all-hole plan answers no rows. Both annotate
// every hole's pattern.
func TestRouterlessPartialAnswersHolesAsAbsent(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Router = nil
	p1.Engine.AllowPartial = true
	q := gen.PaperQuery()
	const reason = "no peer advertises this pattern"

	mixed := &plan.Plan{Root: plan.NewJoin(
		plan.NewUnion(plan.NewScan(q.Patterns[0], "P1"), plan.NewScan(q.Patterns[0], "P2")),
		plan.NewHole(q.Patterns[1]),
	), Query: q}
	rows, comp, err := p1.Engine.ExecuteBatch(mixed, nil, admission.QoS{})
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	want := rql.EvalPathPattern(peers["P1"].Base, gen.PaperSchema(), q.Patterns[0]).
		Union(rql.EvalPathPattern(peers["P2"].Base, gen.PaperSchema(), q.Patterns[0]))
	if got := rows.ResultSet(); !sameRows(got, want) || want.Len() == 0 {
		t.Errorf("partial answer:\n%v\nwant Q1's rows:\n%v", got.Sorted(), want.Sorted())
	}
	if comp.Complete || !reflect.DeepEqual(comp.Unanswered, []exec.Unanswered{{PatternID: "Q2", Reason: reason}}) {
		t.Errorf("completeness = %+v, want Q2 unanswered", comp)
	}
	if m := p1.Engine.Metrics(); m.PartialAnswers != 1 {
		t.Errorf("PartialAnswers = %d, want 1", m.PartialAnswers)
	}

	holes := &plan.Plan{Root: plan.NewJoin(plan.NewHole(q.Patterns[0]), plan.NewHole(q.Patterns[1])), Query: q}
	rows, comp, err = p1.Engine.ExecuteBatch(holes, nil, admission.QoS{})
	if err != nil {
		t.Fatalf("ExecuteBatch(all holes): %v", err)
	}
	if rows == nil || rows.Len() != 0 {
		t.Errorf("all-hole answer = %v, want an empty batch", rows)
	}
	wantUn := []exec.Unanswered{{PatternID: "Q1", Reason: reason}, {PatternID: "Q2", Reason: reason}}
	if comp.Complete || !reflect.DeepEqual(comp.Unanswered, wantUn) {
		t.Errorf("all-hole completeness = %+v, want Q1 and Q2 unanswered", comp)
	}
}
