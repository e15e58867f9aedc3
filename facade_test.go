// Tests for the public facade: every exported constructor and helper is
// exercised the way a downstream application would use it.
package sqpeer_test

import (
	"fmt"
	"strings"
	"testing"

	"sqpeer"
)

const facadeNS = "http://facade.example/s#"

func fs(local string) sqpeer.IRI { return sqpeer.IRI(facadeNS + local) }

func facadeSchema(t testing.TB) *sqpeer.Schema {
	t.Helper()
	s := sqpeer.NewSchema(facadeNS)
	for _, c := range []string{"Author", "Doc", "Tag"} {
		s.MustAddClass(fs(c))
	}
	s.MustAddProperty(fs("wrote"), fs("Author"), fs("Doc"))
	s.MustAddProperty(fs("tagged"), fs("Doc"), fs("Tag"))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeSchemaAndBaseConstruction(t *testing.T) {
	schema := facadeSchema(t)
	base := sqpeer.NewBase()
	base.Add(sqpeer.Statement("http://d#a", fs("wrote"), "http://d#doc"))
	base.Add(sqpeer.Typing("http://d#a", fs("Author")))
	base.Add(sqpeer.Triple{
		S: sqpeer.NewIRITerm("http://d#doc"),
		P: sqpeer.NewIRITerm(fs("tagged")),
		O: sqpeer.NewLiteralTerm("p2p"),
	})
	if base.Len() != 3 {
		t.Fatalf("Len = %d", base.Len())
	}
	as := sqpeer.DeriveActiveSchema(base, schema)
	if !as.HasProperty(fs("wrote")) || !as.HasProperty(fs("tagged")) {
		t.Errorf("active-schema = %s", as)
	}
}

func TestFacadeIOHelpers(t *testing.T) {
	schema := facadeSchema(t)
	var sb strings.Builder
	if err := sqpeer.WriteSchemaText(&sb, schema); err != nil {
		t.Fatal(err)
	}
	back, err := sqpeer.ParseSchemaText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseSchemaText: %v\n%s", err, sb.String())
	}
	if len(back.Properties()) != 2 {
		t.Errorf("round-trip properties = %d", len(back.Properties()))
	}

	base := sqpeer.NewBase()
	base.Add(sqpeer.Statement("http://d#a", fs("wrote"), "http://d#doc"))
	var bb strings.Builder
	if err := sqpeer.WriteBase(&bb, base); err != nil {
		t.Fatal(err)
	}
	base2, err := sqpeer.ReadBase(strings.NewReader(bb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if base2.Len() != 1 {
		t.Errorf("base round trip = %d triples", base2.Len())
	}
}

func TestFacadeRQLAndRVL(t *testing.T) {
	schema := facadeSchema(t)
	q, err := sqpeer.ParseRQL(
		`SELECT A FROM {A}s:wrote{D}, {D}s:tagged{T} USING NAMESPACE s = &`+facadeNS+`&`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Pattern.Patterns) != 2 {
		t.Errorf("pattern = %s", q.Pattern)
	}
	views, err := sqpeer.ParseRVL(
		`VIEW s:wrote(A, D) FROM {A}s:wrote{D} USING NAMESPACE s = &`+facadeNS+`&`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !views[0].ActiveSchema().HasProperty(fs("wrote")) {
		t.Error("view active-schema wrong")
	}

	base := sqpeer.NewBase()
	base.Add(sqpeer.Statement("http://d#a", fs("wrote"), "http://d#doc"))
	base.Add(sqpeer.Statement("http://d#doc", fs("tagged"), "http://d#tag"))
	rows, err := sqpeer.EvalLocal(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("EvalLocal = %d rows", rows.Len())
	}
}

func TestFacadeCostModelAndPolicies(t *testing.T) {
	cat := sqpeer.NewCatalog()
	cat.PutPeer(&sqpeer.PeerStats{Peer: "P2", Slots: 4,
		PropertyCard: map[sqpeer.IRI]int{fs("wrote"): 10}})
	cat.PutLink("P1", "P2", sqpeer.Link{LatencyMS: 5, BandwidthKBps: 100})
	cm := sqpeer.NewCostModel(cat)
	if cm == nil {
		t.Fatal("nil cost model")
	}
	for _, p := range []sqpeer.ShippingPolicy{sqpeer.DataShipping, sqpeer.QueryShipping, sqpeer.HybridShipping} {
		if p.String() == "" {
			t.Error("policy renders empty")
		}
	}
}

func TestFacadeSwimHelpers(t *testing.T) {
	store, err := sqpeer.ParseXML(`<r><e a="1"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Elements("e")) != 1 {
		t.Error("XML navigation failed")
	}
	db := sqpeer.NewRelationalDB()
	tab := sqpeer.NewRelationalTable("t", "a", "b")
	tab.MustInsert("x", "y")
	if err := db.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Table("t"); n.Len() != 1 {
		t.Error("relational helpers failed")
	}
}

func TestFacadeKindsAndNamespaces(t *testing.T) {
	if sqpeer.ClientPeer.String() != "client-peer" || sqpeer.SuperPeer.String() != "super-peer" {
		t.Error("peer kinds wrong")
	}
	ns := sqpeer.NewNamespaces()
	ns.Bind("s", facadeNS)
	if iri, err := ns.Expand("s:Doc"); err != nil || iri != fs("Doc") {
		t.Errorf("Expand = %q, %v", iri, err)
	}
}

func TestFacadeAdhocAndFlooding(t *testing.T) {
	schema := sqpeer.PaperSchema()
	net := sqpeer.NewNetwork()
	adhoc := sqpeer.NewAdhocSON(net, schema)
	base := sqpeer.NewBase()
	n1 := func(l string) sqpeer.IRI { return sqpeer.IRI("http://ics.forth.gr/SON/n1#" + l) }
	base.Add(sqpeer.Statement("http://d#a", n1("prop1"), "http://d#b"))
	base.Add(sqpeer.Statement("http://d#b", n1("prop2"), "http://d#c"))
	if _, err := adhoc.AddPeer("A1", base); err != nil {
		t.Fatal(err)
	}
	res, err := adhoc.Query("A1", sqpeer.PaperRQL, sqpeer.DefaultTTL)
	if err != nil || res.Rows.Len() != 1 || !res.Completeness.Complete {
		t.Errorf("adhoc facade query: %v %+v", err, res)
	}

	fnet := sqpeer.NewNetwork()
	flood := sqpeer.NewFloodingNetwork(fnet, schema)
	if _, err := flood.AddPeer("F1", base.Clone()); err != nil {
		t.Fatal(err)
	}
	fres, err := flood.Query("F1", sqpeer.PaperRQL, 2)
	if err != nil || fres.Rows.Len() != 1 {
		t.Errorf("flooding facade query: %v", err)
	}
}

func TestFacadePeerConstruction(t *testing.T) {
	net := sqpeer.NewNetwork()
	p, err := sqpeer.NewPeer(sqpeer.PeerConfig{
		ID: "PF", Kind: sqpeer.SimplePeer, Schema: facadeSchema(t),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	adv := p.Advertisement()
	if adv.Peer != "PF" {
		t.Errorf("advertisement = %+v", adv)
	}
	q := sqpeer.PaperQuery()
	ann := sqpeer.NewAnnotatedPattern(q)
	ann.Annotate("Q1", "PF", nil)
	if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[PF]" {
		t.Errorf("annotation = %s", got)
	}
}
