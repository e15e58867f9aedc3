package harness

import (
	"fmt"
	"sort"
	"strings"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
	"sqpeer/internal/rvl"
	"sqpeer/internal/stats"
)

func init() {
	register("fig1", "query-pattern extraction and active-schema derivation (Figure 1)", fig1)
	register("fig2", "semantic query routing over P1–P4 (Figure 2)", fig2)
	register("fig3", "plan generation and channel deployment (Figure 3)", fig3)
	register("fig4", "algebraic optimization Plan 1 → Plan 2 → Plan 3 (Figure 4)", fig4)
	register("fig5", "data vs query shipping under three regimes (Figure 5)", fig5)
	register("fig6", "hybrid P2P query processing (Figure 6)", fig6)
	register("fig7", "ad-hoc interleaved routing and processing (Figure 7)", fig7)
}

// fig1 parses the Figure-1 RQL query and RVL view and checks the
// extracted intensional artifacts against the figure.
func fig1() *Report {
	r := &Report{ID: "fig1", Title: "query-pattern extraction and active-schema derivation (Figure 1)", Pass: true}
	schema := gen.PaperSchema()

	c, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		r.check("RQL parses", false)
		return r
	}
	r.linef("  RQL query pattern: %s", c.Pattern)
	q1 := c.Pattern.Patterns[0]
	r.check("end-point classes from schema definitions (C1, C2, C3)",
		q1.Domain == gen.N1("C1") && q1.Range == gen.N1("C2") &&
			c.Pattern.Patterns[1].Range == gen.N1("C3"))
	r.check("projections X, Y marked", len(c.Pattern.Projections) == 2)

	views, err := rvl.ParseAndAnalyze(gen.PaperRVL, schema)
	if err != nil {
		r.check("RVL parses", false)
		return r
	}
	as := views[0].ActiveSchema()
	r.linef("  RVL active-schema:  %s", as)
	r.check("view populates prop4, C5, C6 only",
		as.HasProperty(gen.N1("prop4")) && !as.HasProperty(gen.N1("prop1")) &&
			as.HasClass(gen.N1("C5")) && as.HasClass(gen.N1("C6")))

	// The front end keeps no state between queries: a repeated parse of
	// the same text must succeed too.
	if _, err := rql.ParseAndAnalyze(gen.PaperRQL, schema); err != nil {
		r.check("repeated parse", false)
	}
	return r
}

// fig2 reproduces the Figure-2 annotation and sweeps routing cost with
// SON size and schema size.
func fig2() *Report {
	r := &Report{ID: "fig2", Title: "semantic query routing over P1–P4 (Figure 2)", Pass: true}
	schema := gen.PaperSchema()
	reg := routing.NewRegistry()
	for id, as := range gen.PaperActiveSchemas() {
		reg.Register(id, as)
	}
	router := routing.NewRouter(schema, reg)
	ann, st := router.RouteWithStats(gen.PaperQuery())
	r.linef("  annotation: %s  (comparisons=%d)", ann, st.Comparisons)
	r.check("Q1 → [P1 P2 P4] (P4 via prop4 ⊑ prop1)",
		fmt.Sprint(ann.PeersFor("Q1")) == "[P1 P2 P4]")
	r.check("Q2 → [P1 P3 P4]", fmt.Sprint(ann.PeersFor("Q2")) == "[P1 P3 P4]")
	r.check("annotation complete", ann.Complete())
	rw := ann.RewritesFor("Q1", "P4")
	r.check("P4's Q1 subquery rewritten to prop4",
		len(rw) == 1 && rw[0].Property == gen.N1("prop4"))

	// Sweep: routing cost vs number of peers × schema width.
	r.linef("  routing-cost sweep (chain query of length 3):")
	r.linef("    %8s %8s %12s", "peers", "props", "comparisons")
	for _, nProps := range []int{8, 32} {
		syn := gen.NewSynthetic(nProps, true)
		q := syn.Query(1, 3)
		for _, nPeers := range []int{10, 100, 1000} {
			sreg := routing.NewRegistry()
			bases := syn.Bases(nPeers, nPeers, gen.Vertical)
			for id, as := range gen.ActiveSchemas(syn.Schema, bases) {
				sreg.Register(id, as)
			}
			_, sst := routing.NewRouter(syn.Schema, sreg).RouteWithStats(q)
			r.linef("    %8d %8d %12d", nPeers, nProps, sst.Comparisons)
		}
	}
	return r
}

// fig3 generates Figure 3's Plan 1, executes it at P1 and verifies the
// one-channel-per-peer deployment.
func fig3() *Report {
	r := &Report{ID: "fig3", Title: "plan generation and channel deployment (Figure 3)", Pass: true}
	peers, net := paperSystem(3)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		r.check("planning", false)
		return r
	}
	r.linef("  Plan 1: %s", pr.Raw)
	r.check("Plan 1 = ⋈(∪(Q1@P1,Q1@P2,Q1@P4), ∪(Q2@P1,Q2@P3,Q2@P4))",
		pr.Raw.String() == "⋈(∪(Q1@P1, Q1@P2, Q1@P4), ∪(Q2@P1, Q2@P3, Q2@P4))")
	rows, err := p1.Engine.Execute(pr.Raw)
	if err != nil {
		r.check("execution", false)
		return r
	}
	m := p1.Engine.Metrics()
	r.linef("  answer rows=%d  channels=%d  subplans=%d  network messages=%d",
		rows.Len(), m.ChannelsOpened, m.SubplansShipped, net.Counters().Messages)
	r.check("one channel per contributing remote peer (3)", m.ChannelsOpened == 3)
	r.check("horizontal ∪ + vertical ⋈ yield the complete answer (9 rows)", rows.Len() == 9)
	return r
}

// fig4 applies the Figure-4 rewrites and measures what they buy: fewer
// subplans shipped and fewer bytes moved, with identical answers.
func fig4() *Report {
	r := &Report{ID: "fig4", Title: "algebraic optimization Plan 1 → Plan 2 → Plan 3 (Figure 4)", Pass: true}
	peers, _ := paperSystem(20)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		r.check("planning", false)
		return r
	}
	plan2 := optimizer.DistributeJoinsOverUnions(pr.Raw.Root)
	plan3 := pr.Optimized
	r.linef("  Plan 1: %s", pr.Raw)
	r.linef("  Plan 2: %d union branches after join-over-union distribution", len(plan2.Children()))
	r.linef("  Plan 3: %s", plan3)
	r.check("Plan 2 has 3×3 = 9 branches", len(plan2.Children()) == 9)
	r.check("Plan 3 pushes prop1⋈prop2 to P1 and P4",
		containsAll(plan3.String(), "[Q1⋈Q2]@P1", "[Q1⋈Q2]@P4"))
	r.check("rules reduce subplans vs Plan 2",
		plan.CountSubplans(plan3.Root) < plan.CountSubplans(plan2))

	// Answer preservation on the Figure-2 system.
	rows1, err := p1.Engine.Execute(pr.Raw)
	if err != nil {
		r.check("Plan 1 execution", false)
		return r
	}
	rows3, err := p1.Engine.Execute(plan3)
	if err != nil {
		r.check("Plan 3 execution", false)
		return r
	}
	r.check("identical answers", fmt.Sprint(rows1.Sorted()) == fmt.Sprint(rows3.Sorted()))

	// Measured transfer effect: the rewrite pays off when joins are
	// selective (the paper's premise: "the expected size of the join
	// result is smaller than any of the inputs"). Here only 10 of 300
	// prop1 pairs continue into prop2, and Plan 3's branch joins are
	// pushed to the data (query shipping), so joined 10-row results ship
	// instead of raw 100-row scans.
	selPeers, selNet := selectiveSystem(300, 10)
	s1 := selPeers["P1"]
	spr, err := s1.PlanQuery(gen.PaperQuery())
	if err != nil {
		r.check("selective planning", false)
		return r
	}
	base1, err := s1.Engine.Execute(spr.Raw) // data shipping, Plan 1
	if err != nil {
		r.check("selective Plan 1 execution", false)
		return r
	}
	cRaw := selNet.Counters()
	selNet.ResetCounters()
	s1.Engine.Policy = optimizer.QueryShipping
	base3, err := s1.Engine.Execute(spr.Optimized) // query shipping, Plan 3
	if err != nil {
		r.check("selective Plan 3 execution", false)
		return r
	}
	cOpt := selNet.Counters()
	r.linef("  measured (selective 10%%): Plan 1+data → %6d bytes; Plan 3+query → %6d bytes",
		cRaw.Bytes, cOpt.Bytes)
	r.check("selective answers identical",
		fmt.Sprint(base1.Sorted()) == fmt.Sprint(base3.Sorted()))
	r.check("optimized plan moves fewer bytes on selective joins", cOpt.Bytes < cRaw.Bytes)
	return r
}

// selectiveSystem builds the Figure-2 peers but with selective joins:
// prop1Pairs prop1/prop4 pairs per provider, of which only joinKeys
// continue into prop2.
func selectiveSystem(prop1Pairs, joinKeys int) (map[pattern.PeerID]*peer.Peer, *network.Network) {
	schema := gen.PaperSchema()
	net := network.New()
	mk := func(id pattern.PeerID, props map[string]int) *peer.Peer {
		b := rdf.NewBase()
		y := func(i int) rdf.IRI {
			return rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i))
		}
		// Load the properties in name order: a base's dictionary order,
		// which mirror frames ship, must not follow map iteration.
		names := make([]string, 0, len(props))
		for prop := range props {
			names = append(names, prop)
		}
		sort.Strings(names)
		for _, prop := range names {
			n := props[prop]
			for i := 0; i < n; i++ {
				switch prop {
				case "prop1":
					x := rdf.IRI(fmt.Sprintf("http://d/%s#x%d", id, i))
					b.Add(rdf.Statement(x, gen.N1("prop1"), y(i)))
				case "prop4":
					x := rdf.IRI(fmt.Sprintf("http://d/%s#x5_%d", id, i))
					b.Add(rdf.Statement(x, gen.N1("prop4"), y(i)))
				case "prop2":
					z := rdf.IRI(fmt.Sprintf("http://d/%s#z%d", id, i))
					b.Add(rdf.Statement(y(i), gen.N1("prop2"), z))
				}
			}
		}
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: b}, net)
		if err != nil {
			panic(err)
		}
		return p
	}
	peers := map[pattern.PeerID]*peer.Peer{
		"P1": mk("P1", map[string]int{"prop1": prop1Pairs, "prop2": joinKeys}),
		"P2": mk("P2", map[string]int{"prop1": prop1Pairs}),
		"P3": mk("P3", map[string]int{"prop2": joinKeys}),
		"P4": mk("P4", map[string]int{"prop4": prop1Pairs, "prop2": joinKeys}),
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	net.ResetCounters()
	return peers, net
}

// fig5 evaluates the three shipping regimes with the cost model and
// verifies the paper's verdicts; regime (a) is also executed for real to
// confirm the measured transfer cost agrees with the decision.
func fig5() *Report {
	r := &Report{ID: "fig5", Title: "data vs query shipping under three regimes (Figure 5)", Pass: true}
	q := gen.PaperQuery()
	mkPlan := func() plan.Node {
		return plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	}
	mkCatalog := func(cards map[pattern.PeerID]int) *stats.Catalog {
		cat := stats.NewCatalog()
		for id, n := range cards {
			cat.PutPeer(&stats.PeerStats{Peer: id, Slots: 4,
				PropertyCard:     map[rdf.IRI]int{gen.N1("prop1"): n, gen.N1("prop2"): n},
				DistinctSubjects: map[rdf.IRI]int{gen.N1("prop1"): n, gen.N1("prop2"): n},
				DistinctObjects:  map[rdf.IRI]int{gen.N1("prop1"): n, gen.N1("prop2"): n}})
		}
		return cat
	}
	report := func(name string, cat *stats.Catalog, wantQueryWins bool) {
		cm := optimizer.NewCostModel(cat)
		data := cm.EstimateCost(mkPlan(), "P1", optimizer.DataShipping)
		query := cm.EstimateCost(mkPlan(), "P1", optimizer.QueryShipping)
		verdict := "data"
		if query.TotalMS < data.TotalMS {
			verdict = "query"
		}
		r.linef("  %-38s data=%9.1fms query=%9.1fms → %s-shipping",
			name, data.TotalMS, query.TotalMS, verdict)
		want := "data"
		if wantQueryWins {
			want = "query"
		}
		r.check(name+" verdict matches the paper", verdict == want)
	}

	catA := mkCatalog(map[pattern.PeerID]int{"P1": 0, "P2": 1000, "P3": 1000})
	catA.PutLink("P1", "P3", stats.Link{LatencyMS: 500, BandwidthKBps: 10})
	catA.PutLink("P2", "P3", stats.Link{LatencyMS: 5, BandwidthKBps: 10000})
	report("(a) slow P1–P3 link", catA, true)

	catB := mkCatalog(map[pattern.PeerID]int{"P1": 0, "P2": 1000, "P3": 1000})
	catB.SetLoad("P2", 4000)
	report("(b) P2 heavily loaded", catB, false)

	catC := mkCatalog(map[pattern.PeerID]int{"P1": 0})
	catC.PutPeer(&stats.PeerStats{Peer: "P2", Slots: 4,
		PropertyCard:     map[rdf.IRI]int{gen.N1("prop1"): 50000},
		DistinctSubjects: map[rdf.IRI]int{gen.N1("prop1"): 50000},
		DistinctObjects:  map[rdf.IRI]int{gen.N1("prop1"): 50000}})
	catC.PutPeer(&stats.PeerStats{Peer: "P3", Slots: 4,
		PropertyCard:     map[rdf.IRI]int{gen.N1("prop2"): 100},
		DistinctSubjects: map[rdf.IRI]int{gen.N1("prop2"): 100},
		DistinctObjects:  map[rdf.IRI]int{gen.N1("prop2"): 100}})
	report("(c) large intermediate at P2", catC, true)

	// Regime (a), measured: execute both policies over a real network
	// with the slow P1–P3 link and compare accounted transfer time.
	measured := func(policy optimizer.ShippingPolicy) (float64, int) {
		peers, net := paperSystem(40)
		net.SetLink("P1", "P3", stats.Link{LatencyMS: 500, BandwidthKBps: 10})
		net.SetLink("P2", "P3", stats.Link{LatencyMS: 5, BandwidthKBps: 10000})
		p1 := peers["P1"]
		p1.Engine.Policy = policy
		pl := &plan.Plan{Root: mkPlan(), Query: q}
		if _, err := p1.Engine.Execute(pl); err != nil {
			return -1, 0
		}
		c := net.Counters()
		return c.SimulatedMS, c.Bytes
	}
	dataMS, dataBytes := measured(optimizer.DataShipping)
	queryMS, queryBytes := measured(optimizer.QueryShipping)
	r.linef("  (a) measured: data-shipping %0.1fms/%dB, query-shipping %0.1fms/%dB",
		dataMS, dataBytes, queryMS, queryBytes)
	r.check("(a) measured transfer agrees with the decision", queryMS < dataMS)
	return r
}

// fig6 reproduces the hybrid scenario and sweeps cluster size.
func fig6() *Report {
	r := &Report{ID: "fig6", Title: "hybrid P2P query processing (Figure 6)", Pass: true}
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	for _, sp := range []pattern.PeerID{"SP1", "SP2", "SP3"} {
		if _, err := h.AddSuperPeer(sp); err != nil {
			r.check("backbone", false)
			return r
		}
	}
	for id, base := range figure6Bases(3) {
		if _, err := h.AddSimplePeer(id, base, "SP1"); err != nil {
			r.check("cluster", false)
			return r
		}
	}
	net.ResetCounters()
	p1, _ := h.Peer("P1")
	ann, err := p1.RequestRouting("SP1", gen.PaperQuery())
	if err != nil {
		r.check("routing phase", false)
		return r
	}
	r.linef("  SP1 annotation: %s", ann)
	r.check("Q1 → [P2 P3], Q2 → [P5] as in the figure",
		fmt.Sprint(ann.PeersFor("Q1")) == "[P2 P3]" && fmt.Sprint(ann.PeersFor("Q2")) == "[P5]")
	r.check("super-peer plan complete (no holes, no re-broadcast)", ann.Complete())
	rows, err := h.Query("P1", gen.PaperRQL)
	if err != nil {
		r.check("processing phase", false)
		return r
	}
	c := net.Counters()
	r.linef("  answer rows=%d  messages=%d  irrelevant-peer (P4) messages=%d",
		rows.Len(), c.Messages, c.PerNodeReceived["P4"])
	r.check("P1 joins P2+P3 prop1 with P5 prop2 (6 rows)", rows.Len() == 6)
	r.check("irrelevant peer receives zero messages", c.PerNodeReceived["P4"] == 0)

	// Cluster-size sweep: messages per query as the SON grows (relevant
	// fraction fixed at 20%).
	r.linef("  cluster-size sweep (20%% relevant peers):")
	r.linef("    %8s %12s %16s", "peers", "msgs/query", "peers contacted")
	for _, n := range []int{10, 50, 100} {
		msgs, contacted := hybridSweep(n)
		r.linef("    %8d %12d %16d", n, msgs, contacted)
	}
	return r
}

// hybridSweep builds a hybrid SON with n simple-peers (20% holding
// relevant data, interleaved by construction) and returns messages and
// contacted peers for one query.
func hybridSweep(n int) (msgs, contacted int) {
	net := network.New()
	h := overlay.NewHybrid(net, gen.PaperSchema())
	if _, err := h.AddSuperPeer("SP1"); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		id := pattern.PeerID(fmt.Sprintf("N%03d", i))
		var base *rdf.Base
		switch {
		case i == 0:
			base = rdf.NewBase() // the asking peer
		case i%5 == 1:
			base = roleBase(string(id), 2, "prop1")
		case i%5 == 2:
			base = roleBase(string(id), 2, "prop2")
		default:
			base = roleBase(string(id), 2, "prop3") // irrelevant
		}
		if _, err := h.AddSimplePeer(id, base, "SP1"); err != nil {
			panic(err)
		}
	}
	net.ResetCounters()
	if _, err := h.Query("N000", gen.PaperRQL); err != nil {
		panic(err)
	}
	c := net.Counters()
	for id, got := range c.PerNodeReceived {
		if got > 0 && id != "SP1" && id != "N000" {
			contacted++
		}
	}
	return c.Messages, contacted
}

// fig7 reproduces the ad-hoc scenario including the failed channel.
func fig7() *Report {
	r := &Report{ID: "fig7", Title: "ad-hoc interleaved routing and processing (Figure 7)", Pass: true}
	build := func() (*overlay.Adhoc, *network.Network) {
		net := network.New()
		a := overlay.NewAdhoc(net, gen.PaperSchema())
		mustAdd := func(id pattern.PeerID, base *rdf.Base, nbrs ...pattern.PeerID) {
			if _, err := a.AddPeer(id, base, nbrs...); err != nil {
				panic(err)
			}
		}
		mustAdd("P1", rdf.NewBase())
		mustAdd("P2", roleBase("P2", 3, "prop1"), "P1")
		mustAdd("P3", roleBase("P3", 3, "prop1"), "P1")
		mustAdd("P5", roleBase("P5", 3, "prop2"), "P2")
		return a, net
	}

	a, net := build()
	p1, _ := a.Peer("P1")
	ann := p1.Router.Route(gen.PaperQuery())
	partial, _ := plan.Generate(ann)
	r.linef("  P1's partial plan: %s", partial)
	r.check("Q2 is a hole at P1 (Figure 7a)", plan.HasHoles(partial.Root))
	res, err := a.Query("P1", gen.PaperRQL, overlay.DefaultTTL)
	if err != nil {
		r.check("interleaved resolution", false)
		return r
	}
	rows := res.Rows
	c := net.Counters()
	r.linef("  answer rows=%d  forwards=%d  messages=%d",
		rows.Len(), c.PerKind["adhoc.plan"], c.Messages)
	r.check("P2 completes the plan via P5 (6 rows back at P1)", rows.Len() == 6)
	r.check("exactly one forward needed", c.PerKind["adhoc.plan"] == 1)

	// The failed-channel variant: P3 dies, the query still completes.
	a2, net2 := build()
	net2.Fail("P3")
	res2, err := a2.Query("P1", gen.PaperRQL, overlay.DefaultTTL)
	if err != nil {
		r.check("failed-channel recovery", false)
		return r
	}
	rows2 := res2.Rows
	r.linef("  with P3 failed: rows=%d (P2's contribution only) complete=%t", rows2.Len(), res2.Completeness.Complete)
	r.check("failed channel to P3 tolerated", rows2.Len() == 3)

	// Neighborhood-depth sweep: with depth-2 expansion P1 routes alone.
	a3, _ := build()
	learned, _ := a3.ExpandNeighborhood("P1", 2)
	p1c, _ := a3.Peer("P1")
	ann3 := p1c.Router.Route(gen.PaperQuery())
	r.linef("  after 2-depth schema pull: learned=%d annotation=%s", learned, ann3)
	r.check("2-depth expansion makes P1's routing complete", ann3.Complete())
	return r
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
