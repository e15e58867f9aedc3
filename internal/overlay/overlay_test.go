package overlay_test

import (
	"fmt"
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
)

// propBase builds a base with n pairs of each named paper property, using
// the same shared join resources as gen.PaperBases.
func propBase(peerName string, n int, props ...string) *rdf.Base {
	b := rdf.NewBase()
	y := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i)) }
	for _, prop := range props {
		for i := 0; i < n; i++ {
			switch prop {
			case "prop1":
				x := rdf.IRI(fmt.Sprintf("http://d/%s#x%d", peerName, i))
				b.Add(rdf.Statement(x, gen.N1("prop1"), y(i)))
				b.Add(rdf.Typing(x, gen.N1("C1")))
			case "prop2":
				z := rdf.IRI(fmt.Sprintf("http://d/%s#z%d", peerName, i))
				b.Add(rdf.Statement(y(i), gen.N1("prop2"), z))
				b.Add(rdf.Typing(z, gen.N1("C3")))
			case "prop3":
				s := rdf.IRI(fmt.Sprintf("http://d/%s#s%d", peerName, i))
				o := rdf.IRI(fmt.Sprintf("http://d/%s#o%d", peerName, i))
				b.Add(rdf.Statement(s, gen.N1("prop3"), o))
			case "prop4":
				x := rdf.IRI(fmt.Sprintf("http://d/%s#x5_%d", peerName, i))
				b.Add(rdf.Statement(x, gen.N1("prop4"), y(i)))
				b.Add(rdf.Typing(x, gen.N1("C5")))
			}
		}
	}
	return b
}

// TestHybridFigure6 reproduces the paper's Figure 6: P1 poses Q to SP1;
// SP1's annotation says P2 and P3 answer Q1 and P5 answers Q2; P1
// executes the plan, joining locally.
func TestHybridFigure6(t *testing.T) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	for _, sp := range []pattern.PeerID{"SP1", "SP2", "SP3"} {
		if _, err := h.AddSuperPeer(sp); err != nil {
			t.Fatalf("AddSuperPeer(%s): %v", sp, err)
		}
	}
	// P1 has no relevant data of its own; P2, P3 hold prop1; P5 holds
	// prop2; P4 holds only the irrelevant prop3.
	peers := map[pattern.PeerID]*rdf.Base{
		"P1": rdf.NewBase(),
		"P2": propBase("P2", 3, "prop1"),
		"P3": propBase("P3", 3, "prop1"),
		"P4": propBase("P4", 3, "prop3"),
		"P5": propBase("P5", 3, "prop2"),
	}
	for id, base := range peers {
		if _, err := h.AddSimplePeer(id, base, "SP1"); err != nil {
			t.Fatalf("AddSimplePeer(%s): %v", id, err)
		}
	}
	// Setup traffic (advertisement pushes) is not part of the experiment.
	net.ResetCounters()
	// Phase 1 (routing at SP1): the annotation matches the figure.
	p1, _ := h.Peer("P1")
	ann, err := p1.RequestRouting("SP1", gen.PaperQuery())
	if err != nil {
		t.Fatalf("RequestRouting: %v", err)
	}
	if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P2 P3]" {
		t.Errorf("Q1 peers = %s, want [P2 P3]", got)
	}
	if got := fmt.Sprint(ann.PeersFor("Q2")); got != "[P5]" {
		t.Errorf("Q2 peers = %s, want [P5]", got)
	}
	if !ann.Complete() {
		t.Error("super-peer annotation must be complete (no holes, no further broadcasting)")
	}
	// Phase 2 (processing at P1).
	rows, err := h.Query("P1", gen.PaperRQL)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// X from P2 and P3 per join key: 2 × 3 = 6 rows.
	if rows.Len() != 6 {
		t.Errorf("hybrid answer = %d rows, want 6:\n%s", rows.Len(), rows)
	}
	// P4 (irrelevant) must never have received a query message.
	if got := net.Counters().PerNodeReceived["P4"]; got != 0 {
		t.Errorf("irrelevant peer P4 received %d messages", got)
	}
}

func TestHybridBackboneDiscovery(t *testing.T) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	for _, sp := range []pattern.PeerID{"SP1", "SP2"} {
		if _, err := h.AddSuperPeer(sp); err != nil {
			t.Fatal(err)
		}
	}
	// Data peers cluster under SP1; the asker under SP2.
	if _, err := h.AddSimplePeer("P2", propBase("P2", 2, "prop1"), "SP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddSimplePeer("P5", propBase("P5", 2, "prop2"), "SP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddSimplePeer("PX", rdf.NewBase(), "SP2"); err != nil {
		t.Fatal(err)
	}
	// SP2 knows nothing locally; the backbone must complete the routing.
	rows, err := h.Query("PX", gen.PaperRQL)
	if err != nil {
		t.Fatalf("Query through backbone: %v", err)
	}
	if rows.Len() != 2 {
		t.Errorf("backbone answer = %d rows, want 2:\n%s", rows.Len(), rows)
	}
}

func TestHybridRemovePeer(t *testing.T) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	if _, err := h.AddSuperPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddSimplePeer("P2", propBase("P2", 2, "prop1"), "SP1"); err != nil {
		t.Fatal(err)
	}
	sp, _ := h.SuperPeer("SP1")
	if _, known := sp.Registry.Get("P2"); !known {
		t.Fatal("SP1 does not know P2")
	}
	h.RemovePeer("P2")
	if _, known := sp.Registry.Get("P2"); known {
		t.Error("SP1 still knows the departed P2")
	}
	if _, ok := h.Peer("P2"); ok {
		t.Error("overlay still lists the departed peer")
	}
}

func TestHybridDuplicateAndUnknownIDs(t *testing.T) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	if _, err := h.AddSuperPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddSuperPeer("SP1"); err == nil {
		t.Error("duplicate super-peer accepted")
	}
	if _, err := h.AddSimplePeer("P1", nil, "SPnone"); err == nil {
		t.Error("attachment to unknown super-peer accepted")
	}
	if _, err := h.AddSimplePeer("P1", nil, "SP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddSimplePeer("P1", nil, "SP1"); err == nil {
		t.Error("duplicate simple-peer accepted")
	}
	if _, err := h.Query("ghost", gen.PaperRQL); err == nil {
		t.Error("query at unknown peer accepted")
	}
	if got := fmt.Sprint(h.SuperPeerIDs()); got != "[SP1]" {
		t.Errorf("SuperPeerIDs = %s", got)
	}
	if got := fmt.Sprint(h.SimplePeerIDs()); got != "[P1]" {
		t.Errorf("SimplePeerIDs = %s", got)
	}
}

// TestAdhocFigure7 reproduces the paper's Figure 7: P1 knows P2 and P3
// (both answering Q1) but nobody for Q2; the partial plan with a Q2 hole
// is forwarded to P2, which knows P5, completes the plan, executes it and
// returns the full answer to P1 through the deployed channels.
func TestAdhocFigure7(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	if _, err := a.AddPeer("P1", rdf.NewBase()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddPeer("P2", propBase("P2", 3, "prop1"), "P1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddPeer("P3", propBase("P3", 3, "prop1"), "P1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddPeer("P5", propBase("P5", 3, "prop2"), "P2"); err != nil {
		t.Fatal(err)
	}
	// P1's local routing knowledge covers only Q1.
	p1, _ := a.Peer("P1")
	ann := p1.Router.Route(gen.PaperQuery())
	if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P2 P3]" {
		t.Fatalf("P1's Q1 knowledge = %s", got)
	}
	if len(ann.PeersFor("Q2")) != 0 {
		t.Fatalf("P1 should not know a Q2 peer, got %v", ann.PeersFor("Q2"))
	}
	// Interleaved routing/processing completes the query.
	rows, err := a.Query("P1", gen.PaperRQL)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// X from P2 and P3 per join key: 2 × 3 = 6 rows.
	if rows.Len() != 6 {
		t.Errorf("ad-hoc answer = %d rows, want 6:\n%s", rows.Len(), rows)
	}
}

func TestAdhocFailedChannelToDeadPeer(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 2, "prop1"), "P1")
	_, _ = a.AddPeer("P3", propBase("P3", 2, "prop1"), "P1")
	_, _ = a.AddPeer("P5", propBase("P5", 2, "prop2"), "P2")
	// P3 dies; as in Figure 7, the channel P1→P3 fails but P2's path
	// still completes the query (adapting around the dead P3).
	net.Fail("P3")
	rows, err := a.Query("P1", gen.PaperRQL)
	if err != nil {
		t.Fatalf("Query with dead P3: %v", err)
	}
	// Only P2's prop1 pairs remain: 2 rows.
	if rows.Len() != 2 {
		t.Errorf("answer = %d rows, want 2:\n%s", rows.Len(), rows)
	}
}

func TestAdhocTTLExhaustion(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 2, "prop1"), "P1")
	// Nobody anywhere answers Q2.
	_, err := a.Query("P1", gen.PaperRQL)
	if err == nil {
		t.Fatal("unanswerable query succeeded")
	}
	if !strings.Contains(err.Error(), "Q2") && !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("error should mention the unresolved part: %v", err)
	}
}

func TestAdhocLocalCompletion(t *testing.T) {
	// When the initiator's own knowledge completes the plan, no
	// forwarding happens.
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	_, _ = a.AddPeer("P1", propBase("P1", 2, "prop1", "prop2"))
	rows, err := a.Query("P1", gen.PaperRQL)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.Len() != 2 {
		t.Errorf("local answer = %d rows, want 2:\n%s", rows.Len(), rows)
	}
	if got := net.Counters().PerKind["adhoc.plan"]; got != 0 {
		t.Errorf("locally answerable query was forwarded %d times", got)
	}
}

func TestAdhocExpandNeighborhood(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	// Chain P1 – P2 – P5: P1 initially knows only P2.
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 2, "prop1"), "P1")
	_, _ = a.AddPeer("P5", propBase("P5", 2, "prop2"), "P2")
	p1, _ := a.Peer("P1")
	if _, known := p1.Registry.Get("P5"); known {
		t.Fatal("P1 should not know P5 at depth 1")
	}
	learned, err := a.ExpandNeighborhood("P1", 2)
	if err != nil {
		t.Fatalf("ExpandNeighborhood: %v", err)
	}
	if learned != 1 {
		t.Errorf("learned = %d, want 1 (P5)", learned)
	}
	if _, known := p1.Registry.Get("P5"); !known {
		t.Error("P1 did not learn P5's advertisement at depth 2")
	}
	// After expansion P1 routes the query entirely by itself.
	ann := p1.Router.Route(gen.PaperQuery())
	if !ann.Complete() {
		t.Error("routing incomplete after neighborhood expansion")
	}
	if _, err := a.ExpandNeighborhood("ghost", 2); err == nil {
		t.Error("expansion at unknown peer accepted")
	}
}

func TestAdhocRemovePeer(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 1, "prop1"), "P1")
	a.RemovePeer("P2")
	p1, _ := a.Peer("P1")
	if _, known := p1.Registry.Get("P2"); known {
		t.Error("P1 still knows removed P2")
	}
	if got := fmt.Sprint(a.PeerIDs()); got != "[P1]" {
		t.Errorf("PeerIDs = %s", got)
	}
}

func TestFloodingReachesEveryoneAndMissesCrossPeerJoins(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	// Star topology around P1. P2 holds prop1, P5 holds prop2 — the join
	// spans peers, so flooding's local evaluation finds NOTHING, while
	// P4 holds both and answers locally.
	_, _ = f.AddPeer("P1", rdf.NewBase())
	_, _ = f.AddPeer("P2", propBase("P2", 3, "prop1"), "P1")
	_, _ = f.AddPeer("P5", propBase("P5", 3, "prop2"), "P1")
	_, _ = f.AddPeer("P4", propBase("P4", 3, "prop1", "prop2"), "P1")
	_, _ = f.AddPeer("P6", propBase("P6", 3, "prop3"), "P1")

	res, err := f.Query("P1", gen.PaperRQL, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.PeersReached != 5 {
		t.Errorf("PeersReached = %d, want all 5 (flooding spams everyone)", res.PeersReached)
	}
	// Only P4's co-located pairs are found: 3 rows. The 3 cross-peer
	// answers (P2 × P5) are missed — the completeness gap SON routing
	// plus distributed plans closes.
	if res.Rows.Len() != 3 {
		t.Errorf("flooded answer = %d rows, want 3:\n%s", res.Rows.Len(), res.Rows)
	}
	// Irrelevant P6 received traffic — unlike SON routing.
	if got := net.Counters().PerNodeReceived["P6"]; got == 0 {
		t.Error("flooding should reach the irrelevant peer")
	}
}

func TestFloodingTTLBoundsPropagation(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	// Chain P1 – P2 – P3 – P4.
	_, _ = f.AddPeer("P1", rdf.NewBase())
	_, _ = f.AddPeer("P2", rdf.NewBase(), "P1")
	_, _ = f.AddPeer("P3", rdf.NewBase(), "P2")
	_, _ = f.AddPeer("P4", rdf.NewBase(), "P3")
	res, err := f.Query("P1", gen.PaperRQL, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.PeersReached != 2 {
		t.Errorf("TTL=1 reached %d peers, want 2 (P1 + P2)", res.PeersReached)
	}
	res3, err := f.Query("P1", gen.PaperRQL, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res3.PeersReached != 4 {
		t.Errorf("TTL=3 reached %d peers, want 4", res3.PeersReached)
	}
}

func TestFloodingDuplicateSuppression(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	// Triangle: P1 – P2 – P3 – P1. Each peer must process a query once.
	_, _ = f.AddPeer("P1", propBase("P1", 1, "prop1", "prop2"))
	_, _ = f.AddPeer("P2", propBase("P2", 1, "prop1", "prop2"), "P1")
	_, _ = f.AddPeer("P3", propBase("P3", 1, "prop1", "prop2"), "P1", "P2")
	res, err := f.Query("P1", gen.PaperRQL, 5)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.PeersReached != 3 {
		t.Errorf("PeersReached = %d, want 3 (duplicates suppressed)", res.PeersReached)
	}
	// Union of three local answers: each peer contributes its own X but
	// shares the same join keys.
	if res.Rows.Len() != 3 {
		t.Errorf("rows = %d, want 3:\n%s", res.Rows.Len(), res.Rows)
	}
}

func TestFloodingAccessors(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	_, _ = f.AddPeer("F1", rdf.NewBase())
	_, _ = f.AddPeer("F2", rdf.NewBase(), "F1")
	if _, ok := f.Peer("F1"); !ok {
		t.Error("Peer lookup failed")
	}
	if _, ok := f.Peer("ghost"); ok {
		t.Error("ghost peer found")
	}
	if got := fmt.Sprint(f.PeerIDs()); got != "[F1 F2]" {
		t.Errorf("PeerIDs = %s", got)
	}
	if _, err := f.AddPeer("F1", rdf.NewBase()); err == nil {
		t.Error("duplicate flooding peer accepted")
	}
	if _, err := f.Query("ghost", gen.PaperRQL, 2); err == nil {
		t.Error("query at unknown flooding peer accepted")
	}
}

func TestFloodingBadQueryYieldsEmptyLocalAnswers(t *testing.T) {
	net := network.New()
	f := overlay.NewFlooding(net, gen.PaperSchema())
	_, _ = f.AddPeer("F1", propBase("F1", 1, "prop1"))
	// A query over an undeclared property: peers fail to compile it and
	// contribute nothing, but the flood itself succeeds.
	res, err := f.Query("F1", `SELECT X FROM {X}n1:ghost{Y} USING NAMESPACE n1 = &`+gen.PaperNS+`&`, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rows.Len() != 0 || res.PeersReached != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestAdhocGracefulDeparture(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 1, "prop1"), "P1")
	p1, _ := a.Peer("P1")
	if _, known := p1.Registry.Get("P2"); !known {
		t.Fatal("P1 never learned P2")
	}
	net.ResetCounters()
	a.RemovePeer("P2")
	if _, known := p1.Registry.Get("P2"); known {
		t.Error("departed peer still known after graceful leave")
	}
	// The departure traveled as a real message, not an out-of-band poke.
	if got := net.Counters().PerKind["adv.leave"]; got == 0 {
		t.Error("no adv.leave message observed")
	}
}

func TestHybridGracefulDeparture(t *testing.T) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	_, _ = h.AddSuperPeer("SP1")
	_, _ = h.AddSimplePeer("P2", propBase("P2", 1, "prop1"), "SP1")
	net.ResetCounters()
	h.RemovePeer("P2")
	sp, _ := h.SuperPeer("SP1")
	if _, known := sp.Registry.Get("P2"); known {
		t.Error("super-peer still knows departed P2")
	}
	if got := net.Counters().PerKind["adv.leave"]; got == 0 {
		t.Error("no adv.leave message observed")
	}
	h.RemovePeer("ghost") // must not panic
}

func TestAdhocForwardSkipsDeadCandidate(t *testing.T) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	// P1 knows P2 and P3, both answering Q1; only P2's side leads to P5.
	_, _ = a.AddPeer("P1", rdf.NewBase())
	_, _ = a.AddPeer("P2", propBase("P2", 2, "prop1"), "P1")
	_, _ = a.AddPeer("P3", propBase("P3", 2, "prop1"), "P1")
	_, _ = a.AddPeer("P5", propBase("P5", 2, "prop2"), "P2")
	// Kill P2 — the better candidate — and verify the query fails over
	// to other forwarding paths or errors cleanly, never panics.
	net.Fail("P2")
	rows, err := a.Query("P1", gen.PaperRQL)
	if err != nil {
		// Acceptable: without P2 nobody reachable knows P5.
		if !strings.Contains(err.Error(), "unresolved") && !strings.Contains(err.Error(), "forward") {
			t.Errorf("unexpected error: %v", err)
		}
		return
	}
	// If it succeeded, only P3's contribution can be present.
	for _, line := range rows.Sorted() {
		if strings.Contains(line, "/P2#") {
			t.Errorf("dead peer's data in answer: %s", line)
		}
	}
}

// TestHybridFanoutTwoMessagesPerSite pins the folded channel protocol on
// a 64-site hybrid fanout: the query costs its routing call and reply
// plus, per site, one exec.subplan request and one chan.packet (each site
// answers in a single frame), and no chan.open or chan.close message.
func TestHybridFanoutTwoMessagesPerSite(t *testing.T) {
	const sites = 64
	syn := gen.NewSynthetic(2, false)
	net := network.New()
	h := overlay.NewHybrid(net, syn.Schema)
	if _, err := h.AddSuperPeer("S0"); err != nil {
		t.Fatal(err)
	}
	// A 32×32 grid of property groups × chain slices, as the benchmark's
	// fanout: the 2-pattern query meets 2 rows × 32 columns = 64 sites,
	// each holding one property of its chain slice. Peers off those rows
	// hold nothing and stay out.
	for id, base := range syn.Bases(32*32, 2*sites, gen.Mixed) {
		if base.Len() == 0 {
			continue
		}
		if _, err := h.AddSimplePeer(id, base, "S0"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.AddSimplePeer("C0", rdf.NewBase(), "S0"); err != nil {
		t.Fatal(err)
	}
	net.ResetCounters()
	rows, err := h.Query("C0", syn.RQL(1, 2))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.Len() != 2*sites {
		t.Fatalf("%d rows, want %d (every chain)", rows.Len(), 2*sites)
	}
	c := net.Counters()
	if got := c.PerKind["exec.subplan"]; got != sites {
		t.Errorf("exec.subplan messages = %d, want %d (one per site)", got, sites)
	}
	if got := c.PerKind["chan.packet"]; got != sites {
		t.Errorf("chan.packet messages = %d, want %d (one final packet per site)", got, sites)
	}
	for _, kind := range []string{"chan.open", "chan.open.reply", "chan.close"} {
		if got := c.PerKind[kind]; got != 0 {
			t.Errorf("%s messages = %d, want 0", kind, got)
		}
	}
	if want := 2*sites + 2; c.Messages != want {
		t.Errorf("query cost %d messages, want %d (2 per site + the routing call and reply): %v",
			c.Messages, want, c.PerKind)
	}
}
