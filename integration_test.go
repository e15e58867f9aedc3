// Cross-module integration tests: the same workload must produce the same
// answers through every architecture, and legacy bases must participate
// in SONs transparently. The experiment harness is checked by its own
// package tests (internal/harness).
package sqpeer_test

import (
	"fmt"
	"testing"

	"sqpeer"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// TestArchitecturesAgreeOnAnswers runs the same chain query over the same
// data under the hybrid and the ad-hoc architectures (all distributions)
// and checks both match the centralized ground truth.
func TestArchitecturesAgreeOnAnswers(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Vertical, gen.Horizontal, gen.Mixed} {
		t.Run(dist.String(), func(t *testing.T) {
			syn := gen.NewSynthetic(4, false)
			const peers, chains = 4, 10
			bases := syn.Bases(peers, chains, dist)
			query := syn.RQL(1, 4)

			// Ground truth: centralized evaluation over the union.
			merged := rdf.NewBase()
			for _, b := range bases {
				for _, tr := range b.Triples() {
					merged.Add(tr)
				}
			}
			c, err := rql.ParseAndAnalyze(query, syn.Schema)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := rql.Eval(c, merged)
			if err != nil {
				t.Fatal(err)
			}
			if truth.Len() != chains {
				t.Fatalf("ground truth = %d rows, want %d", truth.Len(), chains)
			}

			// Hybrid.
			hnet := network.New()
			h := overlay.NewHybrid(hnet, syn.Schema)
			if _, err := h.AddSuperPeer("SP"); err != nil {
				t.Fatal(err)
			}
			var first pattern.PeerID
			for id, base := range bases {
				if _, err := h.AddSimplePeer(id, base.Clone(), "SP"); err != nil {
					t.Fatal(err)
				}
				if first == "" || id < first {
					first = id
				}
			}
			hybridRows, err := h.Query(first, query)
			if err != nil {
				t.Fatalf("hybrid: %v", err)
			}

			// Ad-hoc on a line topology.
			anet := network.New()
			a := overlay.NewAdhoc(anet, syn.Schema)
			var prev pattern.PeerID
			ids := sortedIDs(bases)
			for _, id := range ids {
				var nbrs []pattern.PeerID
				if prev != "" {
					nbrs = append(nbrs, prev)
				}
				if _, err := a.AddPeer(id, bases[id].Clone(), nbrs...); err != nil {
					t.Fatal(err)
				}
				prev = id
			}
			// Give every peer 3-depth knowledge so line topologies route.
			for _, id := range ids {
				if _, err := a.ExpandNeighborhood(id, 3); err != nil {
					t.Fatal(err)
				}
			}
			adhocRows, err := a.Query(ids[0], query)
			if err != nil {
				t.Fatalf("adhoc: %v", err)
			}

			want := fmt.Sprint(truth.Sorted())
			if got := fmt.Sprint(hybridRows.Sorted()); got != want {
				t.Errorf("hybrid ≠ truth:\n%v\n%v", got, want)
			}
			if got := fmt.Sprint(adhocRows.Sorted()); got != want {
				t.Errorf("adhoc ≠ truth:\n%v\n%v", got, want)
			}
		})
	}
}

func sortedIDs(m map[pattern.PeerID]*rdf.Base) []pattern.PeerID {
	out := make([]pattern.PeerID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestSwimPeerParticipatesInSON puts a virtual (relational-backed) peer
// into a hybrid SON next to materialized peers and checks that queries
// spanning both answer correctly.
func TestSwimPeerParticipatesInSON(t *testing.T) {
	schema := sqpeer.PaperSchema()
	net := sqpeer.NewNetwork()
	son := sqpeer.NewHybridSON(net, schema)
	if _, err := son.AddSuperPeer("SP1"); err != nil {
		t.Fatal(err)
	}

	// Materialized peer holding prop1 pairs.
	mat := sqpeer.NewBase()
	for i := 0; i < 3; i++ {
		x := sqpeer.IRI(fmt.Sprintf("http://mat#x%d", i))
		y := sqpeer.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i))
		mat.Add(sqpeer.Statement(x, gen.N1("prop1"), y))
	}
	if _, err := son.AddSimplePeer("MAT", mat, "SP1"); err != nil {
		t.Fatal(err)
	}

	// Virtual peer: prop2 pairs from a relational table.
	db := sqpeer.NewRelationalDB()
	tab := sqpeer.NewRelationalTable("links", "src", "dst")
	for i := 0; i < 3; i++ {
		tab.MustInsert(fmt.Sprintf("y%d", i), fmt.Sprintf("z%d", i))
	}
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	vb := &sqpeer.VirtualBase{
		Schema: schema, DB: db,
		RelMappings: []sqpeer.RelationalMapping{{
			Table: "links", SubjectColumn: "src", ObjectColumn: "dst",
			SubjectPrefix: "http://ics.forth.gr/data/shared#",
			ObjectPrefix:  "http://virt#",
			Property:      gen.N1("prop2"),
		}},
	}
	virtBase, err := vb.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := son.AddSimplePeer("VIRT", virtBase, "SP1"); err != nil {
		t.Fatal(err)
	}

	rows, err := son.Query("MAT", sqpeer.PaperRQL)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Errorf("cross-legacy join = %d rows, want 3:\n%s", rows.Len(), rows)
	}
}

// TestFacadeQuickstart exercises the public API end to end the way the
// README shows it.
func TestFacadeQuickstart(t *testing.T) {
	schema := sqpeer.PaperSchema()
	net := sqpeer.NewNetwork()
	son := sqpeer.NewHybridSON(net, schema)
	if _, err := son.AddSuperPeer("SP1"); err != nil {
		t.Fatal(err)
	}
	base := sqpeer.NewBase()
	base.Add(sqpeer.Statement("http://d#a", gen.N1("prop1"), "http://d#b"))
	base.Add(sqpeer.Statement("http://d#b", gen.N1("prop2"), "http://d#c"))
	if _, err := son.AddSimplePeer("P1", base, "SP1"); err != nil {
		t.Fatal(err)
	}
	rows, err := son.Query("P1", sqpeer.PaperRQL)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("facade quickstart = %d rows:\n%s", rows.Len(), rows)
	}

	// Facade parse + local evaluation.
	c, err := sqpeer.ParseRQL(sqpeer.PaperRQL, schema)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sqpeer.EvalLocal(c, base)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(local.Sorted()) != fmt.Sprint(rows.Sorted()) {
		t.Error("facade local evaluation disagrees with SON answer")
	}

	// Facade plan helpers.
	reg := sqpeer.NewRegistry()
	reg.Register("P1", sqpeer.DeriveActiveSchema(base, schema))
	router := sqpeer.NewRouter(schema, reg)
	ann := router.Route(c.Pattern)
	p, err := sqpeer.GeneratePlan(ann)
	if err != nil {
		t.Fatal(err)
	}
	opt := sqpeer.OptimizePlan(p, sqpeer.OptimizerOptions{})
	if opt.String() != "[Q1⋈Q2]@P1" {
		t.Errorf("optimized single-peer plan = %s", opt)
	}
	if sqpeer.IndentPlan(opt) == "" {
		t.Error("IndentPlan empty")
	}
}
