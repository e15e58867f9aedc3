package rql_test

import (
	"strconv"
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

func TestEvalPathPatternWithSubproperties(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	base.Add(rdf.Statement("http://d#a", gen.N1("prop1"), "http://d#b"))
	base.Add(rdf.Statement("http://d#c", gen.N1("prop4"), "http://d#d"))

	pat := gen.PaperQuery().Patterns[0] // {X;C1}prop1{Y;C2}
	rs := rql.EvalPathPattern(base, schema, pat)
	if rs.Len() != 2 {
		t.Errorf("prop1 scan = %d rows, want 2 (one via prop4)\n%s", rs.Len(), rs)
	}
	if rs.Vars[0] != "X" || rs.Vars[1] != "Y" {
		t.Errorf("Vars = %v", rs.Vars)
	}
}

func TestEvalPathPatternClassFilter(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	// Two prop1 pairs; only the first has a C5-typed subject.
	base.Add(rdf.Statement("http://d#a", gen.N1("prop1"), "http://d#b"))
	base.Add(rdf.Typing("http://d#a", gen.N1("C5")))
	base.Add(rdf.Statement("http://d#c", gen.N1("prop1"), "http://d#d"))
	base.Add(rdf.Typing("http://d#c", gen.N1("C1")))

	narrow := pattern.PathPattern{ID: "Q1", SubjectVar: "X", ObjectVar: "Y",
		Property: gen.N1("prop1"), Domain: gen.N1("C5"), Range: gen.N1("C2")}
	rs := rql.EvalPathPattern(base, schema, narrow)
	if rs.Len() != 1 {
		t.Fatalf("narrowed scan = %d rows, want 1\n%s", rs.Len(), rs)
	}
	if rs.Rows[0]["X"].Value != "http://d#a" {
		t.Errorf("wrong row survived the domain filter: %v", rs.Rows[0])
	}
}

// TestEvalPathPatternBatchMatchesScalar pins the columnar scan leaf to
// the row-map evaluator: same pattern, same base, same rows (rendered
// and sorted), across subsumption, class filters and empty results.
func TestEvalPathPatternBatchMatchesScalar(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	base.Add(rdf.Statement("http://d#a", gen.N1("prop1"), "http://d#b"))
	base.Add(rdf.Typing("http://d#a", gen.N1("C5")))
	base.Add(rdf.Statement("http://d#c", gen.N1("prop1"), "http://d#d"))
	base.Add(rdf.Typing("http://d#c", gen.N1("C1")))
	base.Add(rdf.Statement("http://d#e", gen.N1("prop4"), "http://d#f")) // ⊑ prop1

	pats := []pattern.PathPattern{
		gen.PaperQuery().Patterns[0], // {X;C1}prop1{Y;C2}
		{ID: "Q1", SubjectVar: "X", ObjectVar: "Y",
			Property: gen.N1("prop1"), Domain: gen.N1("C5"), Range: gen.N1("C2")},
		{ID: "Q2", SubjectVar: "S", ObjectVar: "O",
			Property: gen.N1("prop2"), Domain: gen.N1("C2"), Range: gen.N1("C3")}, // no rows
	}
	for _, pat := range pats {
		want := rql.EvalPathPattern(base, schema, pat)
		got := rql.EvalPathPatternBatch(base, schema, pat).ResultSet()
		if gs, ws := strings.Join(got.Sorted(), "\n"), strings.Join(want.Sorted(), "\n"); gs != ws {
			t.Errorf("pattern %s: batch scan diverges from scalar\nbatch:\n%s\nscalar:\n%s", pat.ID, gs, ws)
		}
		if !slicesEqual(got.Vars, want.Vars) {
			t.Errorf("pattern %s: Vars = %v, want %v", pat.ID, got.Vars, want.Vars)
		}
	}
}

// TestEvalPathPatternBatchIntoStore runs the id-space scan leaf over a
// base spread across several sorted runs, with pairs reachable through
// both a property and its subproperty, and literal objects under a range
// filter: the scan (the base's own ids over its term snapshot) and the
// scan rebased onto a store that already holds terms must both render
// the row evaluator's rows, once each.
func TestEvalPathPatternBatchIntoStore(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	for i := 0; i < 300; i++ {
		base.Add(rdf.Statement(res(i), gen.N1("prop1"), res(i+1)))
		if i%3 == 0 {
			base.Add(rdf.Statement(res(i), gen.N1("prop4"), res(i+1))) // same pair again
			base.Add(rdf.Typing(res(i), gen.N1("C5")))
		}
		if i%5 == 0 {
			base.Add(rdf.Statement(res(i), gen.N1("prop4"), res(i+7)))
			base.Add(rdf.NewTriple(rdf.NewIRI(res(i)), rdf.NewIRI(gen.N1("prop1")), rdf.NewLiteral("l"+strconv.Itoa(i))))
		}
		if i%7 == 0 {
			base.Add(rdf.Typing(res(i+1), gen.N1("C6")))
		}
	}
	pats := []pattern.PathPattern{
		gen.PaperQuery().Patterns[0], // {X;C1}prop1{Y;C2}, subproperty closure
		{ID: "Q1", SubjectVar: "X", ObjectVar: "Y",
			Property: gen.N1("prop1"), Domain: gen.N1("C5"), Range: gen.N1("C2")},
		{ID: "Q2", SubjectVar: "X", ObjectVar: "Y",
			Property: gen.N1("prop1"), Domain: gen.N1("C1"), Range: gen.N1("C6")},
		{ID: "Q3", SubjectVar: "S", ObjectVar: "O",
			Property: gen.N1("prop4"), Domain: gen.N1("C5"), Range: gen.N1("C6")},
	}
	store := rql.NewTermStore()
	rql.BatchOf(&rql.ResultSet{Vars: []string{"Z"}, Rows: []rql.Row{{"Z": rdf.NewIRI(res(150))}}}).Rebase(store)
	for _, pat := range pats {
		want := strings.Join(rql.EvalPathPattern(base, schema, pat).Sorted(), "\n")
		if want == "" {
			t.Fatalf("pattern %s: empty oracle answer makes the comparison vacuous", pat.ID)
		}
		for i, b := range []*rql.Batch{
			rql.EvalPathPatternBatch(base, schema, pat),
			rql.EvalPathPatternBatch(base, schema, pat).Rebase(store),
		} {
			if got := strings.Join(b.ResultSet().Sorted(), "\n"); got != want {
				t.Errorf("pattern %s, store-backed %v: batch scan diverges from scalar\nbatch:\n%s\nscalar:\n%s", pat.ID, i == 1, got, want)
			}
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvalPaperQueryJoins(t *testing.T) {
	schema := gen.PaperSchema()
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	// P1's base has prop1 pairs (x_i → y_i) and prop2 pairs (y_i → z_i):
	// the join yields one row per i.
	base := gen.PaperBases(4)["P1"]
	rs, err := rql.Eval(c, base)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if rs.Len() != 4 {
		t.Errorf("join produced %d rows, want 4:\n%s", rs.Len(), rs)
	}
	if len(rs.Vars) != 2 || rs.Vars[0] != "X" || rs.Vars[1] != "Y" {
		t.Errorf("projection schema = %v", rs.Vars)
	}
}

func TestEvalSubpropertyContributesToJoin(t *testing.T) {
	schema := gen.PaperSchema()
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, schema)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	// P4 has prop4 (⊑ prop1) and prop2 pairs sharing y_i: the prop1 query
	// must see the prop4 pairs.
	base := gen.PaperBases(3)["P4"]
	rs, err := rql.Eval(c, base)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if rs.Len() != 3 {
		t.Errorf("subproperty join = %d rows, want 3:\n%s", rs.Len(), rs)
	}
}

func TestEvalWhereFilters(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	base.Add(rdf.Statement("http://d#a", gen.N1("prop1"), "http://d#b1"))
	base.Add(rdf.Statement("http://d#c", gen.N1("prop1"), "http://d#b2"))

	mk := func(where string) *rql.ResultSet {
		src := `SELECT X FROM {X}n1:prop1{Y} ` + where + ` USING NAMESPACE n1 = &` + gen.PaperNS + `&`
		c, err := rql.ParseAndAnalyze(src, schema)
		if err != nil {
			t.Fatalf("ParseAndAnalyze(%q): %v", where, err)
		}
		rs, err := rql.Eval(c, base)
		if err != nil {
			t.Fatalf("Eval(%q): %v", where, err)
		}
		return rs
	}
	if rs := mk(`WHERE Y = "http://d#b1"`); rs.Len() != 0 {
		// Y binds to an IRI term, not a literal — equality with a string
		// literal fails, documenting term-kind-sensitive comparison.
		t.Errorf("IRI = string-literal matched: %s", rs)
	}
	if rs := mk(``); rs.Len() != 2 {
		t.Errorf("unfiltered = %d rows", rs.Len())
	}
	if rs := mk(`WHERE X != X`); rs.Len() != 0 {
		t.Errorf("X != X kept %d rows", rs.Len())
	}
}

func TestEvalLiteralFilters(t *testing.T) {
	schema := rdf.NewSchema("http://s#")
	schema.MustAddClass("http://s#Doc")
	schema.MustAddProperty("http://s#year", "http://s#Doc", rdf.XSDInteger)
	schema.MustAddProperty("http://s#title", "http://s#Doc", rdf.RDFSLiteral)

	base := rdf.NewBase()
	base.Add(rdf.Triple{S: rdf.NewIRI("http://d#1"), P: rdf.NewIRI("http://s#year"), O: rdf.NewTypedLiteral("2004", rdf.XSDInteger)})
	base.Add(rdf.Triple{S: rdf.NewIRI("http://d#2"), P: rdf.NewIRI("http://s#year"), O: rdf.NewTypedLiteral("1999", rdf.XSDInteger)})
	base.Add(rdf.Triple{S: rdf.NewIRI("http://d#1"), P: rdf.NewIRI("http://s#title"), O: rdf.NewLiteral("Semantic Routing")})
	base.Add(rdf.Triple{S: rdf.NewIRI("http://d#2"), P: rdf.NewIRI("http://s#title"), O: rdf.NewLiteral("Other Topic")})

	run := func(src string) *rql.ResultSet {
		c, err := rql.ParseAndAnalyze(src, schema)
		if err != nil {
			t.Fatalf("ParseAndAnalyze: %v", err)
		}
		rs, err := rql.Eval(c, base)
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		return rs
	}
	ns := ` USING NAMESPACE s = &http://s#&`
	if rs := run(`SELECT X FROM {X}s:year{Y} WHERE Y > 2000` + ns); rs.Len() != 1 {
		t.Errorf("numeric > filter = %d rows", rs.Len())
	}
	if rs := run(`SELECT X FROM {X}s:year{Y} WHERE Y <= 2004` + ns); rs.Len() != 2 {
		t.Errorf("numeric <= filter = %d rows", rs.Len())
	}
	if rs := run(`SELECT X FROM {X}s:title{T} WHERE T like "Semantic*"` + ns); rs.Len() != 1 {
		t.Errorf("like prefix filter = %d rows", rs.Len())
	}
	if rs := run(`SELECT X FROM {X}s:title{T} WHERE T like "*Topic"` + ns); rs.Len() != 1 {
		t.Errorf("like suffix filter = %d rows", rs.Len())
	}
	if rs := run(`SELECT X FROM {X}s:title{T} WHERE T like "*mantic*"` + ns); rs.Len() != 1 {
		t.Errorf("like infix filter = %d rows", rs.Len())
	}
	if rs := run(`SELECT X FROM {X}s:title{T} WHERE T = "Other Topic"` + ns); rs.Len() != 1 {
		t.Errorf("literal equality = %d rows", rs.Len())
	}
}

func TestResultSetOps(t *testing.T) {
	a := rql.NewResultSet("X", "Y")
	a.Add(rql.Row{"X": rdf.NewIRI("http://d#1"), "Y": rdf.NewIRI("http://d#2")})
	a.Add(rql.Row{"X": rdf.NewIRI("http://d#3"), "Y": rdf.NewIRI("http://d#4")})
	b := rql.NewResultSet("X", "Y")
	b.Add(rql.Row{"X": rdf.NewIRI("http://d#1"), "Y": rdf.NewIRI("http://d#2")}) // dup of a[0]
	b.Add(rql.Row{"X": rdf.NewIRI("http://d#5"), "Y": rdf.NewIRI("http://d#6")})

	u := a.Union(b)
	if u.Len() != 3 {
		t.Errorf("Union = %d rows, want 3 (deduplicated)", u.Len())
	}

	c := rql.NewResultSet("Y", "Z")
	c.Add(rql.Row{"Y": rdf.NewIRI("http://d#2"), "Z": rdf.NewIRI("http://d#9")})
	j := a.Join(c)
	if j.Len() != 1 {
		t.Fatalf("Join = %d rows, want 1", j.Len())
	}
	if j.Rows[0]["X"].Value != "http://d#1" || j.Rows[0]["Z"].Value != "http://d#9" {
		t.Errorf("join row = %v", j.Rows[0])
	}
	if len(j.Vars) != 3 {
		t.Errorf("join vars = %v", j.Vars)
	}

	p := u.Project([]string{"X"})
	if p.Len() != 3 || len(p.Vars) != 1 {
		t.Errorf("Project = %v", p)
	}

	// Projection-induced duplicates collapse.
	d := rql.NewResultSet("X", "Y")
	d.Add(rql.Row{"X": rdf.NewIRI("http://d#1"), "Y": rdf.NewIRI("http://d#2")})
	d.Add(rql.Row{"X": rdf.NewIRI("http://d#1"), "Y": rdf.NewIRI("http://d#3")})
	if got := d.Project([]string{"X"}); got.Len() != 1 {
		t.Errorf("Project dedup = %d rows", got.Len())
	}
}

func TestResultSetJoinDisjointVarsIsCross(t *testing.T) {
	a := rql.NewResultSet("X")
	a.Add(rql.Row{"X": rdf.NewIRI("http://d#1")})
	a.Add(rql.Row{"X": rdf.NewIRI("http://d#2")})
	b := rql.NewResultSet("Z")
	b.Add(rql.Row{"Z": rdf.NewIRI("http://d#3")})
	if j := a.Join(b); j.Len() != 2 {
		t.Errorf("cross join = %d rows, want 2", j.Len())
	}
}

func TestResultSetStringAndBytes(t *testing.T) {
	rs := rql.NewResultSet("X")
	rs.Add(rql.Row{"X": rdf.NewIRI("http://d#1")})
	if !strings.Contains(rs.String(), "1 rows") {
		t.Errorf("String() = %q", rs.String())
	}
	if rs.EstimatedBytes() <= 0 {
		t.Error("EstimatedBytes must be positive for non-empty sets")
	}
	var nilRS *rql.ResultSet
	if nilRS.Len() != 0 || nilRS.EstimatedBytes() != 0 {
		t.Error("nil ResultSet accessors must be safe")
	}
}

func TestEvalMatchesGroundTruthOnThreeHopChain(t *testing.T) {
	schema := gen.PaperSchema()
	base := rdf.NewBase()
	// Chain: a -prop1→ b -prop2→ c -prop3→ d, plus a dead-end prop1 pair.
	base.Add(rdf.Statement("http://d#a", gen.N1("prop1"), "http://d#b"))
	base.Add(rdf.Statement("http://d#b", gen.N1("prop2"), "http://d#c"))
	base.Add(rdf.Statement("http://d#c", gen.N1("prop3"), "http://d#d"))
	base.Add(rdf.Statement("http://d#x", gen.N1("prop1"), "http://d#deadend"))

	src := `SELECT X, W FROM {X}n1:prop1{Y}, {Y}n1:prop2{Z}, {Z}n1:prop3{W} USING NAMESPACE n1 = &` + gen.PaperNS + `&`
	c, err := rql.ParseAndAnalyze(src, schema)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	rs, err := rql.Eval(c, base)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if rs.Len() != 1 {
		t.Fatalf("3-hop chain = %d rows, want 1:\n%s", rs.Len(), rs)
	}
	row := rs.Rows[0]
	if row["X"].Value != "http://d#a" || row["W"].Value != "http://d#d" {
		t.Errorf("chain row = %v", row)
	}
}
