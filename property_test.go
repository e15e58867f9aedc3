// Randomized cross-layer properties: over arbitrary peer populations and
// data placements, distributed execution must equal centralized
// evaluation, optimization must preserve answers, and routing must be
// extensionally complete (every peer holding matching data is found).
package sqpeer_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
)

// randomSystem builds 2–5 peers over the paper schema with randomly
// placed prop1/prop2/prop4 pairs drawn from a small shared resource pool
// (so cross-peer joins occur), everyone knowing everyone.
func randomSystem(seed int64) (map[pattern.PeerID]*peer.Peer, *rdf.Base) {
	rng := rand.New(rand.NewSource(seed))
	all := []rdf.IRI{gen.N1("prop1"), gen.N1("prop2"), gen.N1("prop4")}
	return buildSystem(rng, 2+rng.Intn(4), func() []rdf.IRI { return all })
}

// mixedSystem builds 3–8 peers, each holding pairs of only the query's
// first pattern (prop1 or its subproperty prop4), only its second
// (prop2), or both: a layout mixing peers that answer both join inputs
// with peers that answer one.
func mixedSystem(seed int64) (map[pattern.PeerID]*peer.Peer, *rdf.Base) {
	rng := rand.New(rand.NewSource(seed))
	roles := [][]rdf.IRI{
		{gen.N1("prop1"), gen.N1("prop4")},
		{gen.N1("prop2")},
		{gen.N1("prop1"), gen.N1("prop2"), gen.N1("prop4")},
	}
	return buildSystem(rng, 3+rng.Intn(6), func() []rdf.IRI { return roles[rng.Intn(len(roles))] })
}

// buildSystem creates n peers, each with up to 11 triples whose
// properties come from its draw of props() and whose resources come from
// an 8-resource pool, and returns them with the union of their bases.
func buildSystem(rng *rand.Rand, n int, props func() []rdf.IRI) (map[pattern.PeerID]*peer.Peer, *rdf.Base) {
	schema := gen.PaperSchema()
	net := network.New()
	merged := rdf.NewBase()
	peers := map[pattern.PeerID]*peer.Peer{}
	for i := 0; i < n; i++ {
		id := pattern.PeerID(fmt.Sprintf("R%d", i))
		base := rdf.NewBase()
		mine := props()
		for k := 0; k < rng.Intn(12); k++ {
			p := mine[rng.Intn(len(mine))]
			s := rdf.IRI(fmt.Sprintf("http://pool#r%d", rng.Intn(8)))
			o := rdf.IRI(fmt.Sprintf("http://pool#r%d", rng.Intn(8)))
			tr := rdf.Statement(s, p, o)
			base.Add(tr)
			merged.Add(tr)
		}
		pe, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: base}, net)
		if err != nil {
			panic(err)
		}
		peers[id] = pe
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	return peers, merged
}

func anyPeer(peers map[pattern.PeerID]*peer.Peer) *peer.Peer {
	var best *peer.Peer
	for _, p := range peers {
		if best == nil || p.ID < best.ID {
			best = p
		}
	}
	return best
}

// TestPropertyDistributedEqualsCentralized: for random placements, the
// distributed answer (raw plan, then optimized plan, under each shipping
// policy) equals centralized evaluation over the union of the bases.
func TestPropertyDistributedEqualsCentralized(t *testing.T) {
	schema := gen.PaperSchema()
	compiled, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		peers, merged := randomSystem(seed)
		truth, err := rql.Eval(compiled, merged)
		if err != nil {
			return false
		}
		want := fmt.Sprint(truth.Sorted())

		root := anyPeer(peers)
		pr, err := root.PlanQuery(compiled.Pattern)
		if err != nil {
			return false
		}
		for _, policy := range []optimizer.ShippingPolicy{
			optimizer.DataShipping, optimizer.QueryShipping, optimizer.HybridShipping,
		} {
			root.Engine.Policy = policy
			for _, pl := range []*plan.Plan{pr.Raw, pr.Optimized} {
				rows, err := root.Engine.Execute(pl)
				if err != nil {
					// A system where some pattern has no provider yields a
					// hole; centralized truth must then be empty too.
					var he *exec.HoleError
					if errors.As(err, &he) && truth.Len() == 0 {
						continue
					}
					return false
				}
				got := fmt.Sprint(rows.Project(compiled.Pattern.Projections).Sorted())
				if got != want {
					t.Logf("seed=%d policy=%s plan=%s\n got %s\nwant %s", seed, policy, pl, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRoutingExtensionallyComplete: every peer whose base
// produces rows for a path pattern must be annotated on it (no false
// negatives — the soundness of active-schema derivation plus subsumption
// routing).
func TestPropertyRoutingExtensionallyComplete(t *testing.T) {
	schema := gen.PaperSchema()
	q := gen.PaperQuery()
	prop := func(seed int64) bool {
		peers, _ := randomSystem(seed)
		root := anyPeer(peers)
		ann := routing.NewRouter(schema, root.Registry).Route(q)
		for _, qp := range q.Patterns {
			annotated := map[pattern.PeerID]bool{}
			for _, id := range ann.PeersFor(qp.ID) {
				annotated[id] = true
			}
			for id, pe := range peers {
				rows := rql.EvalPathPattern(pe.Base, schema, qp)
				if rows.Len() > 0 && !annotated[id] {
					t.Logf("seed=%d: peer %s has %d rows for %s but was not annotated",
						seed, id, rows.Len(), qp.ID)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOptimizationPreservesPlanSemantics: for random annotations,
// the optimizer's output always touches a subset of the original peers
// and never introduces or drops holes.
func TestPropertyOptimizationPreservesPlanSemantics(t *testing.T) {
	q := gen.PaperQuery()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ann := pattern.NewAnnotated(q)
		for _, qp := range q.Patterns {
			for i := 0; i < 1+rng.Intn(4); i++ {
				ann.Annotate(qp.ID, pattern.PeerID(fmt.Sprintf("R%d", rng.Intn(5))), nil)
			}
		}
		raw, err := plan.Generate(ann)
		if err != nil {
			return false
		}
		opt := optimizer.Optimize(raw, optimizer.Options{})
		if plan.HasHoles(opt.Root) != plan.HasHoles(raw.Root) {
			return false
		}
		rawPeers := map[pattern.PeerID]bool{}
		for _, id := range plan.Peers(raw.Root) {
			rawPeers[id] = true
		}
		for _, id := range plan.Peers(opt.Root) {
			if !rawPeers[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistributionPreservesAnswers: over seeded layouts mixing
// peers that answer both join inputs with peers that answer one, the
// plan Optimize returns — joins pushed below unions where a shared peer
// exposes a merge, one join over the unions where none does — executes
// to the raw plan's answer under every shipping policy, and both equal
// centralized evaluation over the union of the bases. Both rewrite
// outcomes must occur across the seeds.
func TestPropertyDistributionPreservesAnswers(t *testing.T) {
	compiled, err := rql.ParseAndAnalyze(gen.PaperRQL, gen.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	distributed, kept := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		peers, merged := mixedSystem(seed)
		truth, err := rql.Eval(compiled, merged)
		if err != nil {
			t.Fatalf("seed=%d: Eval: %v", seed, err)
		}
		want := fmt.Sprint(truth.Sorted())
		root := anyPeer(peers)
		pr, err := root.PlanQuery(compiled.Pattern)
		if err != nil {
			t.Fatalf("seed=%d: PlanQuery: %v", seed, err)
		}
		raw := pr.Raw
		opt := optimizer.Optimize(raw, optimizer.Options{})
		if !plan.Equal(optimizer.DistributeJoinsOverUnions(raw.Root), raw.Root) {
			distributed++
		} else if joinsUnions(raw.Root) {
			kept++
		}
		for _, policy := range []optimizer.ShippingPolicy{
			optimizer.DataShipping, optimizer.QueryShipping, optimizer.HybridShipping,
		} {
			root.Engine.Policy = policy
			for _, pl := range []*plan.Plan{raw, opt} {
				rows, err := root.Engine.Execute(pl)
				if err != nil {
					// A pattern with no provider leaves a hole; the
					// centralized answer must then be empty too.
					var he *exec.HoleError
					if errors.As(err, &he) && truth.Len() == 0 {
						continue
					}
					t.Fatalf("seed=%d policy=%s plan=%s: %v", seed, policy, pl, err)
				}
				if got := fmt.Sprint(rows.Project(compiled.Pattern.Projections).Sorted()); got != want {
					t.Fatalf("seed=%d policy=%s plan=%s\n got %s\nwant %s", seed, policy, pl, got, want)
				}
			}
		}
	}
	if distributed == 0 || kept == 0 {
		t.Errorf("layouts exercised one rewrite outcome only: %d distributed, %d kept over unions", distributed, kept)
	}
}

// joinsUnions reports whether n is a join with a union among its inputs.
func joinsUnions(n plan.Node) bool {
	j, ok := n.(*plan.Join)
	if !ok {
		return false
	}
	for _, in := range j.Inputs {
		if _, ok := in.(*plan.Union); ok {
			return true
		}
	}
	return false
}

// TestPropertyPlanSerializationRoundTrips: random plans survive the wire
// format unchanged.
func TestPropertyPlanSerializationRoundTrips(t *testing.T) {
	q := gen.PaperQuery()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ann := pattern.NewAnnotated(q)
		for _, qp := range q.Patterns {
			for i := 0; i < rng.Intn(4); i++ { // may leave holes
				ann.Annotate(qp.ID, pattern.PeerID(fmt.Sprintf("R%d", rng.Intn(5))), nil)
			}
		}
		p, err := plan.Generate(ann)
		if err != nil {
			return false
		}
		candidates := []*plan.Plan{p, optimizer.Optimize(p, optimizer.Options{})}
		for _, c := range candidates {
			data, err := plan.Marshal(c)
			if err != nil {
				return false
			}
			back, err := plan.Unmarshal(data)
			if err != nil {
				return false
			}
			if !plan.Equal(c.Root, back.Root) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
