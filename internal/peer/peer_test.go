package peer_test

import (
	"fmt"
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
	"sqpeer/internal/rvl"
)

func newPeer(t testing.TB, net *network.Network, id pattern.PeerID, base *rdf.Base, kind peer.Kind) *peer.Peer {
	t.Helper()
	p, err := peer.New(peer.Config{ID: id, Kind: kind, Schema: gen.PaperSchema(), Base: base}, net)
	if err != nil {
		t.Fatalf("peer.New(%s): %v", id, err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	net := network.New()
	if _, err := peer.New(peer.Config{Schema: gen.PaperSchema()}, net); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := peer.New(peer.Config{ID: "P1"}, net); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestActiveSchemaFromBase(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(2)
	p4 := newPeer(t, net, "P4", bases["P4"], peer.SimplePeer)
	if !p4.Active.HasProperty(gen.N1("prop4")) || !p4.Active.HasProperty(gen.N1("prop2")) {
		t.Errorf("P4 active-schema = %s", p4.Active)
	}
	// A sharing peer registers itself.
	if _, ok := p4.Registry.Get("P4"); !ok {
		t.Error("peer does not know itself")
	}
	// Statistics include prop1 via subsumption closure.
	if p4.Catalog.Card("P4", gen.N1("prop1")) != 2 {
		t.Errorf("prop1 card via closure = %d", p4.Catalog.Card("P4", gen.N1("prop1")))
	}
}

func TestActiveSchemaFromViews(t *testing.T) {
	net := network.New()
	schema := gen.PaperSchema()
	views, err := rvl.ParseAndAnalyze(gen.PaperRVL, schema)
	if err != nil {
		t.Fatalf("rvl: %v", err)
	}
	p, err := peer.New(peer.Config{ID: "PV", Kind: peer.SimplePeer, Schema: schema, Views: views}, net)
	if err != nil {
		t.Fatalf("peer.New: %v", err)
	}
	if !p.Active.HasProperty(gen.N1("prop4")) || p.Active.HasProperty(gen.N1("prop1")) {
		t.Errorf("view-derived active-schema = %s", p.Active)
	}
	if p.Active.SchemaName != gen.PaperNS {
		t.Errorf("SchemaName = %q", p.Active.SchemaName)
	}
}

func TestPushAndPullAdvertisement(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(2)
	p1 := newPeer(t, net, "P1", bases["P1"], peer.SimplePeer)
	p2 := newPeer(t, net, "P2", bases["P2"], peer.SimplePeer)

	// Push: P2 tells P1 about itself.
	if err := p2.PushAdvertisement("P1"); err != nil {
		t.Fatalf("PushAdvertisement: %v", err)
	}
	if as, ok := p1.Registry.Get("P2"); !ok || !as.HasProperty(gen.N1("prop1")) {
		t.Errorf("P1 did not learn P2's advertisement: %v %v", as, ok)
	}
	if p1.Catalog.Card("P2", gen.N1("prop1")) != 2 {
		t.Errorf("P1 did not learn P2's stats")
	}

	// Pull: P2 requests P1's advertisement.
	if err := p2.PullAdvertisement("P1"); err != nil {
		t.Fatalf("PullAdvertisement: %v", err)
	}
	if _, ok := p2.Registry.Get("P1"); !ok {
		t.Error("P2 did not learn P1's advertisement via pull")
	}
	// Pull from a dead peer errors.
	net.Fail("P1")
	if err := p2.PullAdvertisement("P1"); err == nil {
		t.Error("pull from failed peer succeeded")
	}
}

func TestForgetAndNeighbors(t *testing.T) {
	net := network.New()
	p1 := newPeer(t, net, "P1", gen.PaperBases(1)["P1"], peer.SimplePeer)
	p1.AddNeighbor("P2")
	p1.AddNeighbor("P3")
	if got := p1.Neighbors(); fmt.Sprint(got) != "[P2 P3]" {
		t.Errorf("Neighbors = %v", got)
	}
	p1.Learn(&peer.Advertisement{Peer: "P2", ActiveSchema: gen.PaperActiveSchemas()["P2"]})
	p1.Forget("P2")
	if _, ok := p1.Registry.Get("P2"); ok {
		t.Error("Forget left registry entry")
	}
	if got := p1.Neighbors(); fmt.Sprint(got) != "[P3]" {
		t.Errorf("Neighbors after Forget = %v", got)
	}
	// Learn tolerates nil and empty advertisements.
	p1.Learn(nil)
	p1.Learn(&peer.Advertisement{})
}

func TestRequestRoutingFromSuperPeer(t *testing.T) {
	net := network.New()
	sp := newPeer(t, net, "SP1", nil, peer.SuperPeer)
	for id, as := range gen.PaperActiveSchemas() {
		sp.Learn(&peer.Advertisement{Peer: id, ActiveSchema: as})
	}
	p1 := newPeer(t, net, "P1", gen.PaperBases(1)["P1"], peer.SimplePeer)
	ann, err := p1.RequestRouting("SP1", gen.PaperQuery())
	if err != nil {
		t.Fatalf("RequestRouting: %v", err)
	}
	if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P1 P2 P4]" {
		t.Errorf("super-peer annotation Q1 = %s", got)
	}
	if !ann.Complete() {
		t.Error("super-peer routing should be complete")
	}
}

func TestPlanQueryViaSuperPeer(t *testing.T) {
	net := network.New()
	sp := newPeer(t, net, "SP1", nil, peer.SuperPeer)
	for id, as := range gen.PaperActiveSchemas() {
		sp.Learn(&peer.Advertisement{Peer: id, ActiveSchema: as})
	}
	p1 := newPeer(t, net, "P1", gen.PaperBases(1)["P1"], peer.SimplePeer)
	p1.Super = "SP1"
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	if pr.Raw.String() != "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))" {
		t.Errorf("plan via super-peer = %s", pr.Raw)
	}
}

func TestAskEndToEndWithFilters(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(3)
	var peers []*peer.Peer
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		peers = append(peers, newPeer(t, net, id, bases[id], peer.SimplePeer))
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	p1 := peers[0]
	rows, err := p1.Ask(gen.PaperRQL)
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if rows.Len() != 9 {
		t.Errorf("Ask = %d rows, want 9:\n%s", rows.Len(), rows)
	}
	// A WHERE filter that keeps only one join key.
	filtered, err := p1.Ask(`SELECT X, Y FROM {X;n1:C1}n1:prop1{Y}, {Y}n1:prop2{Z}
WHERE Y like "*y0" USING NAMESPACE n1 = &` + gen.PaperNS + `&`)
	if err != nil {
		t.Fatalf("Ask filtered: %v", err)
	}
	if filtered.Len() != 3 {
		t.Errorf("filtered Ask = %d rows, want 3:\n%s", filtered.Len(), filtered)
	}
	// Parse errors surface.
	if _, err := p1.Ask("garbage"); err == nil {
		t.Error("garbage query accepted")
	}
}

// TestAskWhereOnVariableOutsideSelect: a WHERE condition may name a
// FROM variable the SELECT list drops. The facade filters before it
// projects, so the answer equals centralized evaluation over the union
// of the bases (projecting first left the filter no binding to test, and
// every row failed).
func TestAskWhereOnVariableOutsideSelect(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(3)
	union := rdf.NewBase()
	var peers []*peer.Peer
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		peers = append(peers, newPeer(t, net, id, bases[id], peer.SimplePeer))
		union.AddAll(bases[id].Triples())
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	for _, q := range []string{
		`SELECT X FROM {X;n1:C1}n1:prop1{Y}, {Y}n1:prop2{Z} WHERE Y like "*y0"`,
		`SELECT Z, X FROM {X;n1:C1}n1:prop1{Y}, {Y}n1:prop2{Z} WHERE Y like "*y1" LIMIT 2`,
	} {
		q += ` USING NAMESPACE n1 = &` + gen.PaperNS + `&`
		c, err := rql.ParseAndAnalyze(q, gen.PaperSchema())
		if err != nil {
			t.Fatal(err)
		}
		want, err := rql.Eval(c, union)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: central answer is empty; the test needs rows", q)
		}
		got, err := peers[0].Ask(q)
		if err != nil {
			t.Fatalf("Ask: %v", err)
		}
		if fmt.Sprint(got.Vars) != fmt.Sprint(c.Pattern.Projections) {
			t.Errorf("%s: answer vars %v, want %v", q, got.Vars, c.Pattern.Projections)
		}
		if c.Query.Limit == 0 {
			if g, w := strings.Join(got.Sorted(), "\n"), strings.Join(want.Sorted(), "\n"); g != w {
				t.Errorf("%s:\ngot  %d rows:\n%s\nwant %d rows:\n%s", q, got.Len(), g, want.Len(), w)
			}
			continue
		}
		// Under LIMIT, which rows survive depends on row order, which
		// differs between plans: check the count, and that every row is
		// in the unlimited central answer.
		unlimited := *c.Query
		unlimited.Limit = 0
		full, err := rql.Eval(&rql.Compiled{Query: &unlimited, Pattern: c.Pattern, Schema: c.Schema}, union)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Errorf("%s: %d rows, want %d", q, got.Len(), want.Len())
		}
		inFull := map[string]bool{}
		for _, r := range full.Sorted() {
			inFull[r] = true
		}
		for _, r := range got.Sorted() {
			if !inFull[r] {
				t.Errorf("%s: row %s is not in the central answer", q, r)
			}
		}
	}
}

func TestRefreshAdvertisement(t *testing.T) {
	net := network.New()
	p := newPeer(t, net, "P1", rdf.NewBase(), peer.SimplePeer)
	if p.Active.Size() != 0 {
		t.Fatalf("empty base advertised %s", p.Active)
	}
	p.Base.Add(rdf.Statement("http://d#a", gen.N1("prop3"), "http://d#b"))
	p.RefreshAdvertisement()
	if !p.Active.HasProperty(gen.N1("prop3")) {
		t.Errorf("refresh missed prop3: %s", p.Active)
	}
	if p.Catalog.Card("P1", gen.N1("prop3")) != 1 {
		t.Error("refresh did not update stats")
	}
}

func TestKindString(t *testing.T) {
	if peer.ClientPeer.String() != "client-peer" || peer.SimplePeer.String() != "simple-peer" ||
		peer.SuperPeer.String() != "super-peer" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(peer.Kind(9).String(), "kind") {
		t.Error("unknown kind should render")
	}
}

func TestAdvertisementStatsCarryLoad(t *testing.T) {
	net := network.New()
	p, err := peer.New(peer.Config{ID: "P1", Kind: peer.SimplePeer, Schema: gen.PaperSchema(),
		Base: gen.PaperBases(1)["P1"], Slots: 7}, net)
	if err != nil {
		t.Fatal(err)
	}
	adv := p.Advertisement()
	if adv.Stats.Slots != 7 {
		t.Errorf("Slots = %d", adv.Stats.Slots)
	}
	if adv.Stats.Card(gen.N1("prop1")) != 1 {
		t.Errorf("advertised card = %d", adv.Stats.Card(gen.N1("prop1")))
	}
}

// TestStatsTrailerEncodedOncePerGeneration: the statistics a serving
// peer piggybacks on every answered subplan are encoded once per base
// generation. The subplans P4 answers for one query share one encoded
// body; a base update re-encodes it, and the root's catalog learns the
// new figures from the next answer.
func TestStatsTrailerEncodedOncePerGeneration(t *testing.T) {
	net := network.New()
	bases := gen.PaperBases(3)
	var peers []*peer.Peer
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		peers = append(peers, newPeer(t, net, id, bases[id], peer.SimplePeer))
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	p1, p4 := peers[0], peers[3]
	var bodies [][]byte
	provide := p4.Engine.StatsProvider
	p4.Engine.StatsProvider = func() []byte {
		b := provide()
		bodies = append(bodies, b)
		return b
	}
	ask := func() [][]byte {
		bodies = nil
		if _, err := p1.Ask(gen.PaperRQL); err != nil {
			t.Fatalf("Ask: %v", err)
		}
		if len(bodies) < 2 {
			t.Fatalf("P4 answered %d subplans, want several", len(bodies))
		}
		for _, b := range bodies[1:] {
			if &b[0] != &bodies[0][0] {
				t.Fatal("P4 re-encoded its statistics between subplans at one base generation")
			}
		}
		return bodies
	}
	before := ask()[0]
	card := p1.Catalog.Card("P4", gen.N1("prop1"))
	p4.Base.Add(rdf.Statement("http://d/P4#extra", gen.N1("prop1"), "http://ics.forth.gr/data/shared#y0"))
	after := ask()[0]
	if &after[0] == &before[0] {
		t.Fatal("a base update did not re-encode the statistics")
	}
	if got := p1.Catalog.Card("P4", gen.N1("prop1")); got != card+1 {
		t.Errorf("root catalog prop1 card for P4 = %d after the update, want %d", got, card+1)
	}
}
