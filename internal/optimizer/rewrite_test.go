package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/routing"
)

func figure3Plan1(t testing.TB) *plan.Plan {
	t.Helper()
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	ann := routing.NewRouter(gen.PaperSchema(), reg).Route(gen.PaperQuery())
	p, err := plan.Generate(ann)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

// TestFigure4Plan2 reproduces the first rewrite of Figure 4: distributing
// the join over the two unions yields a union of 3×3 = 9 two-way joins.
func TestFigure4Plan2(t *testing.T) {
	p1 := figure3Plan1(t)
	p2 := optimizer.DistributeJoinsOverUnions(p1.Root)
	u, ok := p2.(*plan.Union)
	if !ok {
		t.Fatalf("Plan 2 root is %T, want union: %s", p2, p2)
	}
	if len(u.Inputs) != 9 {
		t.Fatalf("Plan 2 has %d branches, want 9: %s", len(u.Inputs), p2)
	}
	for _, in := range u.Inputs {
		j, ok := in.(*plan.Join)
		if !ok || len(j.Inputs) != 2 {
			t.Errorf("branch %s is not a binary join", in)
		}
	}
	// First branch joins Q1@P1 with Q2@P1.
	if u.Inputs[0].String() != "⋈(Q1@P1, Q2@P1)" {
		t.Errorf("first branch = %s", u.Inputs[0])
	}
}

// TestFigure4Plan3 reproduces the second rewrite: transformation rules
// merge the same-peer branches, pushing the prop1⋈prop2 join down to P1
// and P4 exactly as the paper describes.
func TestFigure4Plan3(t *testing.T) {
	p1 := figure3Plan1(t)
	p3 := optimizer.Optimize(p1, optimizer.Options{})
	const want = "∪([Q1⋈Q2]@P1, ⋈(Q1@P1, Q2@P3), ⋈(Q1@P1, Q2@P4), " +
		"⋈(Q1@P2, Q2@P1), ⋈(Q1@P2, Q2@P3), ⋈(Q1@P2, Q2@P4), " +
		"⋈(Q1@P4, Q2@P1), ⋈(Q1@P4, Q2@P3), [Q1⋈Q2]@P4)"
	if got := p3.String(); got != want {
		t.Errorf("Plan 3 =\n  %s\nwant\n  %s", got, want)
	}
	// Plan 3 sends fewer subplans than Plan 2.
	p2 := optimizer.DistributeJoinsOverUnions(p1.Root)
	if got, was := plan.CountSubplans(p3.Root), plan.CountSubplans(p2); got >= was {
		t.Errorf("subplans: plan3=%d plan2=%d, rules must reduce them", got, was)
	}
	// The original plan is untouched.
	if p1.String() != "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))" {
		t.Errorf("Optimize mutated its input: %s", p1)
	}
}

func TestOptimizeAblations(t *testing.T) {
	p1 := figure3Plan1(t)
	noDist := optimizer.Optimize(p1, optimizer.Options{SkipDistribution: true})
	// Without distribution the top join of unions has no same-peer scan
	// pairs inside a single join node, so the plan shape is preserved.
	if noDist.String() != p1.String() {
		t.Errorf("merge-only changed plan unexpectedly: %s", noDist)
	}
	noMerge := optimizer.Optimize(p1, optimizer.Options{SkipMergeRules: true})
	if strings.Contains(noMerge.String(), "[Q1⋈Q2]") {
		t.Errorf("merge applied despite SkipMergeRules: %s", noMerge)
	}
	if u, ok := noMerge.Root.(*plan.Union); !ok || len(u.Inputs) != 9 {
		t.Errorf("distribution-only plan shape wrong: %s", noMerge)
	}
}

func TestDistributePreservesHoles(t *testing.T) {
	reg := routing.NewRegistry()
	reg.Register("P2", gen.PaperActiveSchemas()["P2"])
	ann := routing.NewRouter(gen.PaperSchema(), reg).Route(gen.PaperQuery())
	p, err := plan.Generate(ann)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opt := optimizer.Optimize(p, optimizer.Options{})
	if !plan.HasHoles(opt.Root) {
		t.Errorf("optimization dropped the hole: %s", opt)
	}
	if strings.Contains(opt.String(), "[Q1⋈Q2]") {
		t.Errorf("hole merged into a scan: %s", opt)
	}
}

func TestTransformationRulesRequireSharedVariables(t *testing.T) {
	// Q1 {X}prop1{Y} and Q3 {Z}prop3{W} at the same peer share no
	// variable: merging them would make the peer compute a cartesian
	// product, so they must stay separate.
	q1 := gen.PaperQuery().Patterns[0]
	q3 := pattern.PathPattern{ID: "Q3", SubjectVar: "Z", ObjectVar: "W",
		Property: gen.N1("prop3"), Domain: gen.N1("C3"), Range: gen.N1("C4")}
	j := plan.NewJoin(plan.NewScan(q1, "P1"), plan.NewScan(q3, "P1"))
	out := optimizer.ApplyTransformationRules(j)
	if out.String() != "⋈(Q1@P1, Q3@P1)" {
		t.Errorf("disconnected same-peer scans merged: %s", out)
	}
}

func TestTransformationRuleTwoShape(t *testing.T) {
	// The paper's Rule 2 shape: ⋈(⋈(QP, Q1@Pi), Q2@Pi) with QP at another
	// peer. Flattening + grouping must yield ⋈(QP, [Q1⋈Q2]@Pi).
	q := gen.PaperQuery()
	q.Patterns = append(q.Patterns, pattern.PathPattern{
		ID: "Q3", SubjectVar: "Z", ObjectVar: "W",
		Property: gen.N1("prop3"), Domain: gen.N1("C3"), Range: gen.N1("C4")})
	qp := plan.NewScan(q.Patterns[0], "P9")                      // Q1@P9
	inner := plan.NewJoin(qp, plan.NewScan(q.Patterns[1], "P1")) // ⋈(Q1@P9, Q2@P1)
	outer := plan.NewJoin(inner, plan.NewScan(q.Patterns[2], "P1"))
	out := optimizer.ApplyTransformationRules(outer)
	if out.String() != "⋈(Q1@P9, [Q2⋈Q3]@P1)" {
		t.Errorf("Rule 2 result = %s", out)
	}
}

// slices returns a union of n horizontal slices of pattern q, one per
// peer prefix+i.
func slices(q pattern.PathPattern, prefix string, n int) plan.Node {
	var u []plan.Node
	for i := 0; i < n; i++ {
		u = append(u, plan.NewScan(q, pattern.PeerID(fmt.Sprintf("%s%d", prefix, i))))
	}
	return plan.NewUnion(u...)
}

func TestDistributionSkipsDisjointPeers(t *testing.T) {
	// No peer answers both patterns, so no branch would merge: the join
	// stays one join over the two unions, well below the cap.
	q := gen.PaperQuery()
	j := plan.NewJoin(slices(q.Patterns[0], "PA", 32), slices(q.Patterns[1], "PB", 32))
	if out := optimizer.DistributeJoinsOverUnions(j); !plan.Equal(out, j) {
		t.Errorf("disjoint-peer 32×32 join distributed: %d subplans", plan.CountSubplans(out))
	}
}

func TestDistributionCapsExplosion(t *testing.T) {
	// Every peer sits on both sides, so every diagonal branch would
	// merge, but 40×40 exceeds MaxDistributionBranches: the join is left
	// in place rather than exploded.
	q := gen.PaperQuery()
	j := plan.NewJoin(slices(q.Patterns[0], "P", 40), slices(q.Patterns[1], "P", 40))
	out := optimizer.DistributeJoinsOverUnions(j)
	if !plan.Equal(out, j) {
		t.Errorf("40×40 distribution not capped: produced %T", out)
	}
	// The same layout below the cap is distributed: the cap, not the
	// merge gate, stopped the 40×40 join.
	small := plan.NewJoin(slices(q.Patterns[0], "P", 8), slices(q.Patterns[1], "P", 8))
	if _, ok := optimizer.DistributeJoinsOverUnions(small).(*plan.Union); !ok {
		t.Error("8×8 shared-peer join not distributed")
	}
}

func TestDistributionFindsSharedPeerInLaterInputs(t *testing.T) {
	// Only inputs 2 and 3 share a peer (P5); that pair alone justifies
	// the expansion, after which Rule 1 merges it.
	q := gen.PaperQuery()
	q3 := pattern.PathPattern{ID: "Q3", SubjectVar: "Z", ObjectVar: "W",
		Property: gen.N1("prop3"), Domain: gen.N1("C3"), Range: gen.N1("C4")}
	j := plan.NewJoin(
		plan.NewUnion(plan.NewScan(q.Patterns[0], "P1"), plan.NewScan(q.Patterns[0], "P2")),
		plan.NewUnion(plan.NewScan(q.Patterns[1], "P3"), plan.NewScan(q.Patterns[1], "P5")),
		plan.NewUnion(plan.NewScan(q3, "P5"), plan.NewScan(q3, "P6")))
	out := optimizer.DistributeJoinsOverUnions(j)
	u, ok := out.(*plan.Union)
	if !ok || len(u.Inputs) != 8 {
		t.Fatalf("3-input join not distributed into 2×2×2 branches: %s", out)
	}
	merged := optimizer.ApplyTransformationRules(out).String()
	if !strings.Contains(merged, "[Q2⋈Q3]@P5") {
		t.Errorf("shared peer of inputs 2 and 3 not merged: %s", merged)
	}
}

func TestDistributionIgnoresSharedHoles(t *testing.T) {
	// Holes appear on both sides, but holes are never merged: nothing is
	// exposed, so the join is not distributed.
	q := gen.PaperQuery()
	j := plan.NewJoin(
		plan.NewUnion(plan.NewScan(q.Patterns[0], "P1"), plan.NewHole(q.Patterns[0])),
		plan.NewUnion(plan.NewScan(q.Patterns[1], "P3"), plan.NewHole(q.Patterns[1])))
	if out := optimizer.DistributeJoinsOverUnions(j); !plan.Equal(out, j) {
		t.Errorf("join distributed over a shared hole: %s", out)
	}
}
