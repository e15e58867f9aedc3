package optimizer_test

import (
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/routing"
)

func TestReplanAroundFailedPeer(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	router := routing.NewRouter(gen.PaperSchema(), reg)
	p, err := plan.Generate(router.Route(gen.PaperQuery()))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// P4 dies mid-execution.
	replanned, err := optimizer.Replan(p, map[pattern.PeerID]bool{"P4": true}, router)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if strings.Contains(replanned.String(), "P4") {
		t.Errorf("obsolete peer still in plan: %s", replanned)
	}
	if plan.HasHoles(replanned.Root) {
		t.Errorf("replan left holes despite surviving alternatives: %s", replanned)
	}
	// P1, P2 still answer Q1; P1, P3 still answer Q2.
	want := "⋈(∪(Q1@P1, Q1@P2), ∪(Q2@P1, Q2@P3))"
	if replanned.String() != want {
		t.Errorf("replanned = %s, want %s", replanned, want)
	}
}

func TestReplanNoOpWithoutObsoleteScans(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	router := routing.NewRouter(gen.PaperSchema(), reg)
	p, _ := plan.Generate(router.Route(gen.PaperQuery()))
	same, err := optimizer.Replan(p, map[pattern.PeerID]bool{"P99": true}, router)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if same != p {
		t.Error("no-op replan should return the original plan")
	}
}

func TestReplanFailsWhenNoAlternative(t *testing.T) {
	reg := routing.NewRegistry()
	as := gen.PaperActiveSchemas()
	reg.Register("P2", as["P2"])
	reg.Register("P3", as["P3"])
	router := routing.NewRouter(gen.PaperSchema(), reg)
	p, _ := plan.Generate(router.Route(gen.PaperQuery()))
	// P3 is the only peer answering Q2; its loss is unrecoverable.
	out, err := optimizer.Replan(p, map[pattern.PeerID]bool{"P3": true}, router)
	if err == nil {
		t.Fatalf("Replan must fail with no alternative, got %s", out)
	}
	if !strings.Contains(err.Error(), "Q2") {
		t.Errorf("error should name the unresolved pattern: %v", err)
	}
	// The partial plan is still returned for ad-hoc forwarding.
	if out == nil || !plan.HasHoles(out.Root) {
		t.Error("failed replan should return the partial plan")
	}
}

func TestThroughputMonitor(t *testing.T) {
	m := optimizer.NewThroughputMonitor(10)
	m.Track("P1")
	m.Track("P2")
	m.Observe("P1", 50)
	m.Observe("P2", 3)
	newly := m.Tick()
	if len(newly) != 1 || newly[0] != "P2" {
		t.Errorf("Tick flagged %v, want [P2]", newly)
	}
	// A flagged peer is not re-reported while flagged; once unflagged
	// (and tracked again), a slow window reports it anew.
	m.Observe("P1", 50)
	if newly := m.Tick(); len(newly) != 0 {
		t.Errorf("second Tick re-flagged: %v", newly)
	}
	m.Unflag("P2")
	m.Track("P2")
	m.Observe("P1", 50)
	if newly := m.Tick(); len(newly) != 1 || newly[0] != "P2" {
		t.Errorf("Tick after Unflag flagged %v, want [P2]", newly)
	}
	// Tracked-but-silent peers trip the monitor.
	m2 := optimizer.NewThroughputMonitor(1)
	m2.Track("P9")
	if newly := m2.Tick(); len(newly) != 1 || newly[0] != "P9" {
		t.Errorf("silent peer not flagged: %v", newly)
	}
}
