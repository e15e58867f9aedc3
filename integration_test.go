// Cross-module integration tests: the same workload must produce the same
// answers through every architecture, and legacy bases must participate
// in SONs transparently. The experiment harness is checked by its own
// package tests (internal/harness).
package sqpeer_test

import (
	"fmt"
	"testing"

	"sqpeer"
	"sqpeer/internal/exec"
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

			// Ad-hoc on a line topology, every peer with 3-depth
			// knowledge so the line routes completely.
			ids := sortedIDs(bases)
			a := adhocLine(t, syn.Schema, bases, ids)
			for _, id := range ids {
				if _, err := a.ExpandNeighborhood(id, 3); err != nil {
					t.Fatal(err)
				}
			}
			adhoc, err := a.Query(ids[0], query, overlay.DefaultTTL)
			if err != nil {
				t.Fatalf("adhoc: %v", err)
			}

			want := fmt.Sprint(truth.Sorted())
			if got := fmt.Sprint(hybridRows.Sorted()); got != want {
				t.Errorf("hybrid ≠ truth:\n%v\n%v", got, want)
			}
			if got := fmt.Sprint(adhoc.Rows.Sorted()); got != want || !adhoc.Completeness.Complete {
				t.Errorf("adhoc ≠ truth (%+v):\n%v\n%v", adhoc.Completeness, got, want)
			}

			// Without the expansion, the answer depends on how far the
			// routing request may travel; at every TTL it must be a
			// subset of the truth, with what it lacks annotated.
			for _, ttl := range []int{1, 2, overlay.DefaultTTL} {
				a := adhocLine(t, syn.Schema, bases, ids)
				res, err := a.Query(ids[0], query, ttl)
				if err != nil {
					t.Fatalf("adhoc at TTL %d: %v", ttl, err)
				}
				checkPartialSubset(t, fmt.Sprintf("TTL %d", ttl), c, res, truth)
			}
		})
	}
}

// adhocLine builds an ad-hoc SON over clones of the bases, each peer
// neighboring its predecessor in ids.
func adhocLine(t *testing.T, schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, ids []pattern.PeerID) *overlay.Adhoc {
	t.Helper()
	a := overlay.NewAdhoc(network.New(), schema)
	var prev []pattern.PeerID
	for _, id := range ids {
		if _, err := a.AddPeer(id, bases[id].Clone(), prev...); err != nil {
			t.Fatal(err)
		}
		prev = []pattern.PeerID{id}
	}
	return a
}

// checkPartialSubset is the partial-answer invariant: every row agrees
// with some row of the truth on each variable it binds; a row leaving a
// projected variable unbound lacks the path patterns binding it, so the
// answer must be partial and name each such pattern Unanswered.
func checkPartialSubset(t *testing.T, label string, c *rql.Compiled, res *exec.Result, truth *rql.ResultSet) {
	t.Helper()
	unanswered := map[string]bool{}
	for _, u := range res.Completeness.Unanswered {
		unanswered[u.PatternID] = true
	}
	if res.Completeness.Complete != (len(unanswered) == 0) {
		t.Errorf("%s: Complete=%t with unanswered %v", label, res.Completeness.Complete, res.Completeness.Unanswered)
	}
	for _, row := range res.Rows.Rows {
		found := false
		for _, tr := range truth.Rows {
			if row.Compatible(tr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: row %v is in no answer of the truth", label, row)
		}
		for _, v := range c.Pattern.Projections {
			if _, bound := row[v]; bound {
				continue
			}
			for _, pp := range c.Pattern.Patterns {
				if (pp.SubjectVar == v || pp.ObjectVar == v) && !unanswered[pp.ID] {
					t.Errorf("%s: row %v lacks %s, but %s is not annotated unanswered (%+v)",
						label, row, v, pp.ID, res.Completeness)
				}
			}
		}
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
