package rql

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/rdf"
)

// chainBase holds n prop1 pairs r(3i) → r(3i+1) and n prop2 pairs
// r(3i+1) → r(3i+2), so the Figure-1 join answers n rows, plus pad
// unrelated statements of another property.
func chainBase(n, pad int) *rdf.Base {
	base := rdf.NewBase()
	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	for i := 0; i < n; i++ {
		base.Add(rdf.Statement(res(3*i), gen.N1("prop1"), res(3*i+1)))
		base.Add(rdf.Statement(res(3*i+1), gen.N1("prop2"), res(3*i+2)))
	}
	for i := 0; i < pad; i++ {
		base.Add(rdf.NewTriple(rdf.NewIRI(rdf.IRI("http://pad#s"+strconv.Itoa(i))), rdf.NewIRI(gen.N1("prop3")), rdf.NewLiteral("pad")))
	}
	return base
}

// Two scans of one base join in the base's id space: the inputs already
// agree, so the join rebases neither and adopts the base's term snapshot
// as it is, however large the base's dictionary. So do projection and
// union.
func TestBaseIDJoinAdoptsBaseSnapshot(t *testing.T) {
	schema := gen.PaperSchema()
	base := chainBase(20, 10_000)
	q := gen.PaperQuery()
	s1 := EvalPathPatternBatch(base, schema, q.Patterns[0])
	s2 := EvalPathPatternBatch(base, schema, q.Patterns[1])
	if s1.space != base || s2.space != base {
		t.Fatalf("scans are not in the base's id space")
	}
	if len(s1.Dict) < 10_000 || &s1.Dict[0] != &s2.Dict[0] {
		t.Fatalf("scans do not share the base's term snapshot (%d terms)", len(s1.Dict))
	}
	if in := []*Batch{s1, s2}; &aligned(in)[0] != &in[0] {
		t.Fatalf("same-base scans were rebased")
	}
	join := s1.Join(s2)
	if join.space != base || &join.Dict[0] != &s1.Dict[0] {
		t.Fatalf("join left the base's id space: space %T", join.space)
	}
	if join.Len() != 20 {
		t.Fatalf("join = %d rows, want 20", join.Len())
	}
	if p := join.Project(q.Projections); p.space != base || p.Len() != 20 {
		t.Fatalf("projection left the base's id space or lost rows (%d)", p.Len())
	}
	if u := UnionAll(s1, s1); u.space != base || u.Len() != 20 {
		t.Fatalf("union left the base's id space or lost rows (%d)", u.Len())
	}
}

// A batch of base ids stays valid while its base changes: the base's
// dictionary is append-only and its entries are never reclaimed, so
// growing the term table past its capacity, or removing the very triples
// the batch scanned, leaves the batch's ids and terms as they were.
func TestBaseIDBatchSurvivesBaseChanges(t *testing.T) {
	schema := gen.PaperSchema()
	base := chainBase(20, 0)
	q := gen.PaperQuery()
	scan := EvalPathPatternBatch(base, schema, q.Patterns[0])
	join := scan.Join(EvalPathPatternBatch(base, schema, q.Patterns[1]))
	before := strings.Join(scan.ResultSet().Sorted(), "\n")
	beforeJoin := strings.Join(join.ResultSet().Sorted(), "\n")
	terms := &scan.Dict[0]

	res := func(i int) rdf.IRI { return rdf.IRI("http://d#r" + strconv.Itoa(i)) }
	for i := 0; i < 5_000; i++ {
		base.Add(rdf.Statement(res(100_000+i), gen.N1("prop1"), res(200_000+i)))
	}
	for i := 0; i < 20; i += 2 {
		base.Remove(rdf.Statement(res(3*i), gen.N1("prop1"), res(3*i+1)))
	}
	if fresh := EvalPathPatternBatch(base, schema, q.Patterns[0]); &fresh.Dict[0] == terms || fresh.Len() != 5_010 {
		t.Fatalf("base change not seen: %d prop1 pairs, want 5 010 over a reallocated term table", fresh.Len())
	}
	if got := strings.Join(scan.ResultSet().Sorted(), "\n"); got != before {
		t.Errorf("scan changed with its base:\n%s\nwant:\n%s", got, before)
	}
	if got := strings.Join(join.ResultSet().Sorted(), "\n"); got != beforeJoin {
		t.Errorf("join changed with its base:\n%s\nwant:\n%s", got, beforeJoin)
	}
	// A later scan of the changed base still joins the earlier one in
	// the base's ids: the earlier snapshot is a prefix of the later one,
	// which the join adopts.
	fresh := EvalPathPatternBatch(base, schema, q.Patterns[1])
	if !sameSpace([]*Batch{fresh, scan}) {
		t.Fatalf("scans of one base before and after a change disagree on ids")
	}
	across := scan.Join(fresh)
	if across.space != base {
		t.Fatalf("join across the change left the base's id space")
	}
	if got := strings.Join(across.ResultSet().Sorted(), "\n"); got != beforeJoin {
		t.Errorf("join across the change:\n%s\nwant:\n%s", got, beforeJoin)
	}
}

// Rebasing a batch of base ids onto a store interns only the terms its
// rows reference, not its base's whole dictionary, and keeps its rows.
func TestRebaseBaseIDsInternsReferencedTerms(t *testing.T) {
	schema := gen.PaperSchema()
	base := chainBase(20, 10_000)
	scan := EvalPathPatternBatch(base, schema, gen.PaperQuery().Patterns[0])
	want := strings.Join(scan.ResultSet().Sorted(), "\n")
	st := NewTermStore()
	scan.Rebase(st)
	if scan.space != st || len(scan.Dict) != 40 {
		t.Fatalf("rebased scan: store-backed %v, %d store terms, want 40", scan.space == st, len(scan.Dict))
	}
	if got := strings.Join(scan.ResultSet().Sorted(), "\n"); got != want {
		t.Errorf("rebase changed rows:\n%s\nwant:\n%s", got, want)
	}
}

// A union of base ids with a foreign batch leaves the base's id space:
// the foreign batch's terms are not the base's, and the base may later
// give the next id to another term. The union answers on the foreign
// batch's store, leaves both inputs as they were, and still combines
// with a later scan of the changed base.
func TestBaseIDBatchInternLeavesBaseSpace(t *testing.T) {
	schema := gen.PaperSchema()
	base := chainBase(5, 0)
	pat := gen.PaperQuery().Patterns[0]
	scan := EvalPathPatternBatch(base, schema, pat)
	scanCols := slices.Clone(scan.Cols[0])
	extra := BatchOf(rsOf([]string{"X", "Y"}, Row{"X": termI("http://d#new"), "Y": termI("http://d#r1")}))
	merged := UnionAll(scan, extra)
	if merged.space != extra.space {
		t.Fatalf("a union holding a term its base lacks kept the base's id space")
	}
	if scan.space != base || !slices.Equal(scan.Cols[0], scanCols) {
		t.Fatalf("the union rewrote its base-id input")
	}
	for i := 0; i < 3; i++ {
		base.Add(rdf.Statement(rdf.IRI("http://d#later"+strconv.Itoa(i)), gen.N1("prop1"), "http://d#r1"))
	}
	later := EvalPathPatternBatch(base, schema, pat)
	want := merged.ResultSet().Union(later.ResultSet())
	got := UnionAll(merged, later).ResultSet()
	if g, w := strings.Join(got.Sorted(), "\n"), strings.Join(want.Sorted(), "\n"); g != w {
		t.Errorf("union across the base change:\n%s\nwant:\n%s", g, w)
	}
}

// A batch on a store far larger than what its rows reference is framed
// and rebased with tables sized by its cells, not by the store: the
// Slicer's table holds the three referenced terms of 20 000, and both
// passes keep the rows.
func TestCompactedSizesTablesByCells(t *testing.T) {
	st := NewTermStore()
	var terms []rdf.Term
	for i := 0; i < 20_000; i++ {
		terms = append(terms, termI("http://d#t"+strconv.Itoa(i)))
	}
	st.Intern(nil, terms)
	b := NewBatch("X", "Y")
	b.Cols[0] = []int32{19_990, 5, 19_990}
	b.Cols[1] = []int32{12_000, -1, 5}
	b.rows, b.space, b.Dict = 3, st, st.dict.Terms()
	want := strings.Join(b.ResultSet().Sorted(), "\n")

	sl := NewSlicer(b)
	if len(sl.remap) != 3 {
		t.Errorf("slicer table of %d entries, want 3", len(sl.remap))
	}
	if got := strings.Join(sl.Slice(0, 3).ResultSet().Sorted(), "\n"); got != want {
		t.Errorf("sliced rows:\n%s\nwant:\n%s", got, want)
	}
	fresh := NewTermStore()
	b.Rebase(fresh)
	if fresh.Len() != 3 || b.space != fresh {
		t.Errorf("rebase interned %d terms, want 3", fresh.Len())
	}
	if got := strings.Join(b.ResultSet().Sorted(), "\n"); got != want {
		t.Errorf("rebased rows:\n%s\nwant:\n%s", got, want)
	}
}
