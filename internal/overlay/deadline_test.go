package overlay_test

import (
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/overlay"
	"sqpeer/internal/rdf"
	"sqpeer/internal/stats"
)

// TestFloodingDeadlineSkipsSlowNeighbor: Flooding.DeadlineMS bounds each
// flood hop, so a neighbor behind a gray-failed link is skipped like a
// dead one instead of stalling the whole flood; the zero default keeps
// the old unbounded reach.
func TestFloodingDeadlineSkipsSlowNeighbor(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	if _, err := f.AddPeer("P1", propBase("P1", 2, "prop1")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPeer("P2", propBase("P2", 2, "prop1"), "P1"); err != nil {
		t.Fatal(err)
	}
	net.SetLink("P1", "P2", stats.Link{LatencyMS: 500, BandwidthKBps: 1000})

	f.DeadlineMS = 10
	res, err := f.Query("P1", gen.PaperRQL, 3)
	if err != nil {
		t.Fatalf("bounded flood: %v", err)
	}
	if res.PeersReached != 1 {
		t.Errorf("bounded flood reached %d peers, want only the initiator", res.PeersReached)
	}

	f.DeadlineMS = 0
	res, err = f.Query("P1", gen.PaperRQL, 3)
	if err != nil {
		t.Fatalf("unbounded flood: %v", err)
	}
	if res.PeersReached != 2 {
		t.Errorf("unbounded flood reached %d peers, want 2", res.PeersReached)
	}
}

// TestAdhocDeadlineBoundsPlanForwarding: the routing forward (the
// interleaved routing/processing hop of Figure 7) honors the initiator's
// Engine.DeadlineMS, the bound its other control-plane calls use. P1 can
// fill Q1 itself but must forward the Q2 hole; when every forward
// candidate sits behind a gray-failed link the bounded forward gives up
// instead of stalling, and the answer comes back partial with Q2 named,
// while the zero default resolves the plan as before.
func TestAdhocDeadlineBoundsPlanForwarding(t *testing.T) {
	build := func(t *testing.T) (*network.Network, *overlay.Adhoc) {
		t.Helper()
		net := network.New()
		a := overlay.NewAdhoc(net, gen.PaperSchema())
		if _, err := a.AddPeer("P1", rdf.NewBase()); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddPeer("P2", propBase("P2", 2, "prop1"), "P1"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddPeer("P3", propBase("P3", 2, "prop1"), "P1"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddPeer("P5", propBase("P5", 2, "prop2"), "P2"); err != nil {
			t.Fatal(err)
		}
		// Every peer P1 could forward the query pattern to gray-fails:
		// reachable, but far beyond any useful deadline.
		slow := stats.Link{LatencyMS: 5000, BandwidthKBps: 1000}
		net.SetLink("P1", "P2", slow)
		net.SetLink("P1", "P3", slow)
		return net, a
	}

	net, a := build(t)
	p1, _ := a.Peer("P1")
	p1.Engine.DeadlineMS = 100 // generous for healthy links, hopeless at 5000ms
	net.ResetCounters()
	res, err := a.Query("P1", gen.PaperRQL, overlay.DefaultTTL)
	if err != nil {
		t.Fatalf("bounded Query: %v", err)
	}
	if got := net.Counters().PerKind["adhoc.plan"]; got != 2 {
		t.Errorf("adhoc.plan messages = %d, want the 2 forwards that gave up", got)
	}
	if res.Completeness.Complete || !unanswered(res.Completeness, "Q2") {
		t.Fatalf("bounded forwards over 5000ms links resolved the plan: %+v", res.Completeness)
	}

	// The zero default keeps forwards unbounded: the same topology
	// resolves (latency is simulated-clock accounting, not wall time).
	_, a = build(t)
	res, err = a.Query("P1", gen.PaperRQL, overlay.DefaultTTL)
	if err != nil {
		t.Fatalf("unbounded Query: %v", err)
	}
	if res.Rows.Len() != 4 {
		t.Errorf("answer = %d rows, want 4:\n%s", res.Rows.Len(), res.Rows)
	}
}

// unanswered reports whether the annotation names the pattern.
func unanswered(c exec.Completeness, id string) bool {
	for _, u := range c.Unanswered {
		if u.PatternID == id {
			return true
		}
	}
	return false
}
