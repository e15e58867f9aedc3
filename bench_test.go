// Benchmarks regenerating the paper's evaluation artifacts, one per
// figure plus the quantified claims (see DESIGN.md §4). Run with:
//
//	go test -bench=. -benchmem
package sqpeer_test

import (
	"fmt"
	"testing"

	"sqpeer/internal/dht"
	"sqpeer/internal/gen"
	"sqpeer/internal/mediate"
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

// benchPaperSystem builds the Figure-2 peers with full mutual knowledge.
func benchPaperSystem(b *testing.B, pairs int) (map[pattern.PeerID]*peer.Peer, *network.Network) {
	b.Helper()
	schema := gen.PaperSchema()
	bases := gen.PaperBases(pairs)
	net := network.New()
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id]}, net)
		if err != nil {
			b.Fatal(err)
		}
		peers[id] = p
	}
	for _, x := range peers {
		for _, y := range peers {
			if x != y {
				x.Learn(y.Advertisement())
			}
		}
	}
	return peers, net
}

// BenchmarkFig1PatternExtraction measures the RQL front end: parse +
// semantic analysis + query-pattern extraction of the Figure-1 query.
func BenchmarkFig1PatternExtraction(b *testing.B) {
	schema := gen.PaperSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rql.ParseAndAnalyze(gen.PaperRQL, schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1ViewDerivation measures RVL analysis + active-schema
// derivation of the Figure-1 advertisement.
func BenchmarkFig1ViewDerivation(b *testing.B) {
	schema := gen.PaperSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		views, err := rvl.ParseAndAnalyze(gen.PaperRVL, schema)
		if err != nil {
			b.Fatal(err)
		}
		if views[0].ActiveSchema().Size() != 1 {
			b.Fatal("wrong active-schema")
		}
	}
}

// benchRoutingSetup builds the FIG-2 routing workload at SON size n:
// the paper's fixture for n=4, the synthetic chain SON otherwise. With
// indexed set, the registry maintains the inverted property index.
func benchRoutingSetup(n int, indexed bool) (*routing.Router, *pattern.QueryPattern) {
	var reg *routing.Registry
	var schema *rdf.Schema
	var q *pattern.QueryPattern
	newReg := func(s *rdf.Schema) *routing.Registry {
		if indexed {
			return routing.NewIndexedRegistry(s)
		}
		return routing.NewRegistry()
	}
	if n == 4 {
		schema = gen.PaperSchema()
		reg = newReg(schema)
		for id, as := range gen.PaperActiveSchemas() {
			reg.Register(id, as)
		}
		q = gen.PaperQuery()
	} else {
		syn := gen.NewSynthetic(8, true)
		schema = syn.Schema
		reg = newReg(schema)
		for id, as := range gen.ActiveSchemas(syn.Schema, syn.Bases(n, n, gen.Vertical)) {
			reg.Register(id, as)
		}
		q = syn.Query(1, 3)
	}
	return routing.NewRouter(schema, reg), q
}

// BenchmarkFig2Routing measures the Query-Routing Algorithm across SON
// sizes (the FIG-2 sweep): per-route latency with n registered peers,
// using the paper's literal brute-force triple loop.
func BenchmarkFig2Routing(b *testing.B) {
	for _, n := range []int{4, 10, 100, 500, 1000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			router, q := benchRoutingSetup(n, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				router.Route(q)
			}
		})
	}
}

// BenchmarkFig2RoutingIndexed is the same sweep over the inverted-index
// routing path (large-SON sizes included); compare against
// BenchmarkFig2Routing for the index's speedup.
func BenchmarkFig2RoutingIndexed(b *testing.B) {
	for _, n := range []int{4, 10, 100, 500, 1000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			router, q := benchRoutingSetup(n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				router.Route(q)
			}
		})
	}
}

// BenchmarkFig3PlanGeneration measures the Query-Processing Algorithm:
// annotated pattern → distributed plan.
func BenchmarkFig3PlanGeneration(b *testing.B) {
	reg := routing.NewRegistry()
	for id, as := range gen.PaperActiveSchemas() {
		reg.Register(id, as)
	}
	ann := routing.NewRouter(gen.PaperSchema(), reg).Route(gen.PaperQuery())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Generate(ann); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Execution measures end-to-end distributed execution of
// Figure 3's plan (channel deployment, subplan shipping, union+join).
func BenchmarkFig3Execution(b *testing.B) {
	peers, _ := benchPaperSystem(b, 20)
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p1.Engine.Execute(pr.Raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Optimization measures the compile-time rewrite pipeline
// (join-over-union distribution + transformation rules) on Plan 1.
func BenchmarkFig4Optimization(b *testing.B) {
	reg := routing.NewRegistry()
	for id, as := range gen.PaperActiveSchemas() {
		reg.Register(id, as)
	}
	ann := routing.NewRouter(gen.PaperSchema(), reg).Route(gen.PaperQuery())
	p1, err := plan.Generate(ann)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimizer.Optimize(p1, optimizer.Options{})
	}
}

// BenchmarkFig4AblationDistributionOnly isolates the distribution rewrite
// for the ablation called out in DESIGN.md §5.
func BenchmarkFig4AblationDistributionOnly(b *testing.B) {
	reg := routing.NewRegistry()
	for id, as := range gen.PaperActiveSchemas() {
		reg.Register(id, as)
	}
	ann := routing.NewRouter(gen.PaperSchema(), reg).Route(gen.PaperQuery())
	p1, err := plan.Generate(ann)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimizer.Optimize(p1, optimizer.Options{SkipMergeRules: true})
	}
}

// BenchmarkFig5Shipping measures cost estimation and the compile-time
// shipping-policy choice for the Figure-5 plan.
func BenchmarkFig5Shipping(b *testing.B) {
	cat := stats.NewCatalog()
	for _, id := range []pattern.PeerID{"P1", "P2", "P3"} {
		cat.PutPeer(&stats.PeerStats{Peer: id, Slots: 4,
			PropertyCard:     map[rdf.IRI]int{gen.N1("prop1"): 1000, gen.N1("prop2"): 1000},
			DistinctSubjects: map[rdf.IRI]int{gen.N1("prop1"): 1000, gen.N1("prop2"): 1000},
			DistinctObjects:  map[rdf.IRI]int{gen.N1("prop1"): 1000, gen.N1("prop2"): 1000}})
	}
	cat.PutLink("P1", "P3", stats.Link{LatencyMS: 500, BandwidthKBps: 10})
	cm := optimizer.NewCostModel(cat)
	q := gen.PaperQuery()
	root := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pol, _ := cm.ChoosePolicy(root, "P1"); pol == optimizer.DataShipping {
			b.Fatal("unexpected policy under slow root link")
		}
	}
}

// BenchmarkFig6Hybrid measures a full hybrid query (two-phase: routing at
// the super-peer, processing at the asking peer) across cluster sizes.
func BenchmarkFig6Hybrid(b *testing.B) {
	for _, n := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("cluster=%d", n), func(b *testing.B) {
			net := network.New()
			h := overlay.NewHybrid(net, gen.PaperSchema())
			if _, err := h.AddSuperPeer("SP1"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				id := pattern.PeerID(fmt.Sprintf("N%03d", i))
				base := rdf.NewBase()
				switch i % 5 {
				case 1:
					base = benchRoleBase(string(id), 2, "prop1")
				case 2:
					base = benchRoleBase(string(id), 2, "prop2")
				case 3:
					base = benchRoleBase(string(id), 2, "prop3")
				}
				if _, err := h.AddSimplePeer(id, base, "SP1"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Query("N000", gen.PaperRQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7AdHoc measures the interleaved routing/processing path: a
// query pattern forwarded once before its annotation completes, then
// executed at the initiator.
func BenchmarkFig7AdHoc(b *testing.B) {
	net := network.New()
	a := overlay.NewAdhoc(net, gen.PaperSchema())
	mustAdd := func(id pattern.PeerID, base *rdf.Base, nbrs ...pattern.PeerID) {
		if _, err := a.AddPeer(id, base, nbrs...); err != nil {
			b.Fatal(err)
		}
	}
	mustAdd("P1", rdf.NewBase())
	mustAdd("P2", benchRoleBase("P2", 3, "prop1"), "P1")
	mustAdd("P3", benchRoleBase("P3", 3, "prop1"), "P1")
	mustAdd("P5", benchRoleBase("P5", 3, "prop2"), "P2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Query("P1", gen.PaperRQL, overlay.DefaultTTL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows.Len() != 6 {
			b.Fatalf("rows = %d", res.Rows.Len())
		}
	}
}

// BenchmarkClaimSONvsFlooding compares the messages of one query under
// SON routing and under flooding on the same 50-peer population.
func BenchmarkClaimSONvsFlooding(b *testing.B) {
	b.Run("son", func(b *testing.B) {
		net := network.New()
		h := overlay.NewHybrid(net, gen.PaperSchema())
		if _, err := h.AddSuperPeer("SP1"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			id := pattern.PeerID(fmt.Sprintf("N%03d", i))
			if _, err := h.AddSimplePeer(id, benchClaimBase(i, string(id)), "SP1"); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Query("N000", gen.PaperRQL); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(net.Counters().Messages)/float64(b.N), "msgs/query")
	})
	b.Run("flooding", func(b *testing.B) {
		net := network.New()
		f := overlay.NewFlooding(net, gen.PaperSchema())
		for i := 0; i < 50; i++ {
			id := pattern.PeerID(fmt.Sprintf("N%03d", i))
			var nbrs []pattern.PeerID
			if i > 0 {
				nbrs = append(nbrs, pattern.PeerID(fmt.Sprintf("N%03d", i-1)))
			}
			if _, err := f.AddPeer(id, benchClaimBase(i, string(id)), nbrs...); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Query("N000", gen.PaperRQL, 50); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(net.Counters().Messages)/float64(b.N), "msgs/query")
	})
}

// BenchmarkClaimSubsumption compares routing with and without RDF/S
// subsumption (the §2.3 ablation).
func BenchmarkClaimSubsumption(b *testing.B) {
	reg := routing.NewRegistry()
	for id, as := range gen.PaperActiveSchemas() {
		reg.Register(id, as)
	}
	for _, mode := range []pattern.SubsumptionMode{pattern.FullSubsumption, pattern.ExactOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			router := routing.NewRouter(gen.PaperSchema(), reg)
			router.Mode = mode
			q := gen.PaperQuery()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				router.Route(q)
			}
		})
	}
}

// BenchmarkClaimAdaptivity measures a full failure-recovery cycle: plan,
// peer dies, execution replans and completes.
func BenchmarkClaimAdaptivity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		peers, net := benchPaperSystem(b, 3)
		p1 := peers["P1"]
		pr, err := p1.PlanQuery(gen.PaperQuery())
		if err != nil {
			b.Fatal(err)
		}
		net.Fail("P4")
		b.StartTimer()
		rows, err := p1.Engine.Execute(pr.Optimized)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() == 0 {
			b.Fatal("no rows after adaptation")
		}
	}
}

// BenchmarkClaimDistribution measures end-to-end querying under the three
// data distributions of §2.3.
func BenchmarkClaimDistribution(b *testing.B) {
	for _, dist := range []gen.Distribution{gen.Vertical, gen.Horizontal, gen.Mixed} {
		b.Run(dist.String(), func(b *testing.B) {
			syn := gen.NewSynthetic(3, false)
			net := network.New()
			var nodes []*peer.Peer
			for id, base := range syn.Bases(3, 12, dist) {
				p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema, Base: base}, net)
				if err != nil {
					b.Fatal(err)
				}
				nodes = append(nodes, p)
			}
			for _, x := range nodes {
				for _, y := range nodes {
					if x != y {
						x.Learn(y.Advertisement())
					}
				}
			}
			root := nodes[0]
			pr, err := root.PlanQuery(syn.Query(1, 3))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := root.Engine.Execute(pr.Optimized)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Len() != 12 {
					b.Fatalf("rows = %d", rows.Len())
				}
			}
		})
	}
}

// BenchmarkExecutorShippingPolicies compares execution latency of the
// same plan under the three shipping policies.
func BenchmarkExecutorShippingPolicies(b *testing.B) {
	for _, policy := range []optimizer.ShippingPolicy{
		optimizer.DataShipping, optimizer.QueryShipping, optimizer.HybridShipping,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			peers, _ := benchPaperSystem(b, 10)
			p1 := peers["P1"]
			p1.Engine.Policy = policy
			pr, err := p1.PlanQuery(gen.PaperQuery())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p1.Engine.Execute(pr.Raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTripleStore measures the storage substrate: inserts and
// indexed matches.
func BenchmarkTripleStore(b *testing.B) {
	b.Run("add", func(b *testing.B) {
		base := rdf.NewBase()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base.Add(rdf.Statement(
				rdf.IRI(fmt.Sprintf("http://d#s%d", i%10000)),
				gen.N1("prop1"),
				rdf.IRI(fmt.Sprintf("http://d#o%d", i%997))))
		}
	})
	b.Run("match-by-predicate", func(b *testing.B) {
		base := gen.PaperBases(1000)["P1"]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := base.Count(rdf.Term{}, rdf.NewIRI(gen.N1("prop1")), rdf.Term{}); got != 1000 {
				b.Fatalf("count = %d", got)
			}
		}
	})
	b.Run("pairs-with-subsumption", func(b *testing.B) {
		schema := gen.PaperSchema()
		base := gen.PaperBases(1000)["P4"]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(base.Pairs(gen.N1("prop1"), schema)); got != 1000 {
				b.Fatalf("pairs = %d", got)
			}
		}
	})
}

// BenchmarkLocalEval measures single-peer conjunctive evaluation (the
// scan+join core under every distributed operator).
func BenchmarkLocalEval(b *testing.B) {
	schema := gen.PaperSchema()
	base := gen.PaperBases(1000)["P1"]
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := rql.Eval(c, base)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() != 1000 {
			b.Fatalf("rows = %d", rows.Len())
		}
	}
}

// benchRoleBase mirrors the harness roleBase helper for benchmarks.
func benchRoleBase(name string, pairs int, props ...string) *rdf.Base {
	b := rdf.NewBase()
	y := func(i int) rdf.IRI {
		return rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i))
	}
	for _, prop := range props {
		for i := 0; i < pairs; i++ {
			switch prop {
			case "prop1":
				b.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://d/%s#x%d", name, i)), gen.N1("prop1"), y(i)))
			case "prop2":
				b.Add(rdf.Statement(y(i), gen.N1("prop2"), rdf.IRI(fmt.Sprintf("http://d/%s#z%d", name, i))))
			case "prop3":
				b.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://d/%s#s%d", name, i)), gen.N1("prop3"),
					rdf.IRI(fmt.Sprintf("http://d/%s#o%d", name, i))))
			}
		}
	}
	return b
}

func benchClaimBase(i int, name string) *rdf.Base {
	switch i % 10 {
	case 1:
		return benchRoleBase(name, 2, "prop1", "prop2")
	case 2:
		return benchRoleBase(name, 2, "prop1")
	case 3:
		return benchRoleBase(name, 2, "prop2")
	default:
		return benchRoleBase(name, 2, "prop3")
	}
}

// BenchmarkDHTLookup measures one property lookup on rings of growing
// size (the future-work §5 DHT index).
func BenchmarkDHTLookup(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("ring=%d", n), func(b *testing.B) {
			net := network.New()
			ring := dht.NewRing(net)
			schema := gen.PaperSchema()
			for i := 0; i < n; i++ {
				id := pattern.PeerID(fmt.Sprintf("N%04d", i))
				if err := ring.Join(id); err != nil {
					b.Fatal(err)
				}
			}
			for id, as := range gen.PaperActiveSchemas() {
				if err := ring.Join(id); err != nil {
					b.Fatal(err)
				}
				if _, err := ring.Publish(id, schema, as); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			totalHops := 0
			for i := 0; i < b.N; i++ {
				regs, hops, err := ring.Lookup("N0000", gen.N1("prop1"))
				if err != nil || len(regs) == 0 {
					b.Fatalf("lookup: %v (%d regs)", err, len(regs))
				}
				totalHops += hops
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops/lookup")
		})
	}
}

// BenchmarkMediation measures articulation-based query reformulation.
func BenchmarkMediation(b *testing.B) {
	foreign := rdf.NewSchema("http://f#")
	for _, c := range []string{"D1", "D2", "D3"} {
		foreign.MustAddClass(rdf.IRI("http://f#" + c))
	}
	foreign.MustAddProperty("http://f#rel1", "http://f#D1", "http://f#D2")
	foreign.MustAddProperty("http://f#rel2", "http://f#D2", "http://f#D3")
	art := mediate.NewArticulation("http://f#", gen.PaperNS).
		MapClass("http://f#D1", gen.N1("C1")).
		MapClass("http://f#D2", gen.N1("C2")).
		MapClass("http://f#D3", gen.N1("C3")).
		MapProperty("http://f#rel1", gen.N1("prop1")).
		MapProperty("http://f#rel2", gen.N1("prop2"))
	q := &pattern.QueryPattern{
		SchemaName: "http://f#",
		Patterns: []pattern.PathPattern{
			{ID: "Q1", SubjectVar: "X", ObjectVar: "Y", Property: "http://f#rel1", Domain: "http://f#D1", Range: "http://f#D2"},
			{ID: "Q2", SubjectVar: "Y", ObjectVar: "Z", Property: "http://f#rel2", Domain: "http://f#D2", Range: "http://f#D3"},
		},
		Projections: []string{"X", "Y"},
	}
	target := gen.PaperSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := art.Reformulate(q, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopNRouting measures routing with peer-count constraints.
func BenchmarkTopNRouting(b *testing.B) {
	syn := gen.NewSynthetic(6, false)
	reg := routing.NewRegistry()
	for id, as := range gen.ActiveSchemas(syn.Schema, syn.Bases(200, 200, gen.Horizontal)) {
		reg.Register(id, as)
	}
	q := syn.Query(1, 3)
	for _, cap := range []int{0, 1, 5} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			router := routing.NewRouter(syn.Schema, reg)
			router.MaxPeersPerPattern = cap
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				router.Route(q)
			}
		})
	}
}
