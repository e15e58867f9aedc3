package rql

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
)

// fuzzVarPairs are the variable schemas a fuzzed relation can take: its
// subject and object variables.
var fuzzVarPairs = [][2]string{{"X", "Y"}, {"Y", "Z"}, {"X", "Z"}, {"Y", "X"}, {"Z", "Y"}, {"Z", "X"}}

// fuzzTerm is term i of the fuzzer's small universe: six IRIs and, as
// objects, two literals.
func fuzzTerm(i byte, object bool) rdf.Term {
	n := i % 6
	if object {
		n = i % 8
	}
	if n >= 6 {
		return rdf.NewLiteral("l" + strconv.Itoa(int(n)))
	}
	return rdf.NewIRI(rdf.IRI("http://f#t" + strconv.Itoa(int(n))))
}

// fuzzRelation decodes one relation from data: a schema byte, a row
// count, then a subject and an object byte per row. It returns the path
// pattern that scans it and its statements, and the unread bytes.
func fuzzRelation(data []byte, prop string) (pattern.PathPattern, []rdf.Triple, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	vars := fuzzVarPairs[int(next())%len(fuzzVarPairs)]
	pat := pattern.PathPattern{ID: prop, SubjectVar: vars[0], ObjectVar: vars[1], Property: gen.N1(prop)}
	var ts []rdf.Triple
	for n := next() % 8; n > 0; n-- {
		s, o := fuzzTerm(next(), false), fuzzTerm(next(), true)
		ts = append(ts, rdf.NewTriple(s, rdf.NewIRI(pat.Property), o))
	}
	return pat, ts, data
}

// fuzzForms builds one relation in every id space an operator meets: base
// ids from the base both relations share and from a base of its own, a
// fresh store (BatchOf), a store both relations share, and a decoded
// wire frame.
func fuzzForms(t *testing.T, shared *rdf.Base, pat pattern.PathPattern, ts []rdf.Triple, st *TermStore) []*Batch {
	schema := gen.PaperSchema()
	scan := EvalPathPatternBatch(shared, schema, pat)
	own := rdf.NewBase()
	for _, tr := range ts {
		own.Add(tr)
	}
	enc, err := AppendBatch(nil, NewSlicer(scan).Slice(0, scan.Len()))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return []*Batch{
		scan,
		EvalPathPatternBatch(own, schema, pat),
		BatchOf(scan.ResultSet()),
		BatchOf(scan.ResultSet()).Rebase(st),
		frame,
	}
}

// sameRelation reports whether a batch renders exactly the rows, in order,
// and the schema of the row-form relation.
func sameRelation(b *Batch, want *ResultSet) bool {
	got := b.ResultSet()
	return slices.Equal(got.Vars, want.Vars) && slices.EqualFunc(got.Rows, want.Rows, func(g, w Row) bool {
		return reflect.DeepEqual(g, w)
	})
}

// batchCopy is a deep copy of a batch's columns and dictionary.
func batchCopy(b *Batch) *Batch {
	c := &Batch{Vars: slices.Clone(b.Vars), Dict: slices.Clone(b.Dict), Cols: make([][]int32, len(b.Cols))}
	for i, col := range b.Cols {
		c.Cols[i] = slices.Clone(col)
	}
	return c
}

// FuzzBatchOps is a differential fuzzer for the batch operators across id
// spaces: two decoded relations, each built as base ids, store ids and a
// decoded frame, must union, join, concatenate, project and filter to
// exactly the rows, in order, that the ResultSet operators give on the
// forms' row renderings, over every pairing of forms; and no operator may
// change an input's columns or dictionary. A form's row order is its
// scan's (a base of its own orders its ids differently), so each form is
// checked against its own rendering, and that against the scan of the
// base the relations share. A decoded frame that repeats A's rows must
// still be deduplicated by union, projection and join.
func FuzzBatchOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 2, 2, 3, 1, 2, 1, 4, 2, 7, 3, 5, 0})
	f.Add([]byte{2, 4, 1, 6, 1, 6, 2, 7, 3, 0, 4, 2, 0, 3, 5, 1, 1, 1})
	f.Add([]byte{5, 2, 3, 3, 3, 4, 3, 2, 0, 0, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		patA, tsA, rest := fuzzRelation(data, "prop1")
		patB, tsB, rest := fuzzRelation(rest, "prop2")
		var conds []Condition
		if len(rest) >= 2 {
			conds = []Condition{{Left: Operand{Var: fuzzVarPairs[rest[0]%6][0]}, Op: CompOp(rest[0] / 6 % 7), Right: Operand{Lit: fuzzTerm(rest[1], true)}}}
		}
		shared := rdf.NewBase()
		for _, tr := range append(slices.Clone(tsA), tsB...) {
			shared.Add(tr)
		}
		st := NewTermStore()
		formsA := fuzzForms(t, shared, patA, tsA, st)
		formsB := fuzzForms(t, shared, patB, tsB, st)
		inputs := append(slices.Clone(formsA), formsB...)
		var kept []*Batch
		for _, b := range inputs {
			kept = append(kept, batchCopy(b))
		}
		project := []string{patA.ObjectVar, "Q"}
		for i, a := range formsA {
			rsA := a.ResultSet()
			if !slices.Equal(rsA.Sorted(), formsA[0].ResultSet().Sorted()) {
				t.Fatalf("form %d of A renders %v, want %v", i, rsA, formsA[0].ResultSet())
			}
			if got := a.Project(project); !sameRelation(got, rsA.Project(project)) {
				t.Errorf("form %d: Project = %v, want %v", i, got.ResultSet(), rsA.Project(project))
			}
			want, err := ApplyFilters(rsA, conds)
			if err != nil {
				t.Fatalf("ApplyFilters: %v", err)
			}
			if got, err := a.Filter(conds); err != nil || !sameRelation(got, want) {
				t.Errorf("form %d: Filter(%v) = %v (%v), want %v", i, conds, got.ResultSet(), err, want)
			}
			for j, b := range formsB {
				rsB := b.ResultSet()
				if i == 0 && !slices.Equal(rsB.Sorted(), formsB[0].ResultSet().Sorted()) {
					t.Fatalf("form %d of B renders %v, want %v", j, rsB, formsB[0].ResultSet())
				}
				union := rsA.Union(rsB)
				if got := UnionAll(a, b); !sameRelation(got, union) {
					t.Errorf("forms %d,%d: UnionAll = %v, want %v", i, j, got.ResultSet(), union)
				}
				if got, want := a.Join(b), rsA.Join(rsB); !sameRelation(got, want) {
					t.Errorf("forms %d,%d: Join = %v, want %v", i, j, got.ResultSet(), want)
				}
				concat := NewResultSet(mergeVars(rsA.Vars, rsB.Vars)...)
				concat.Rows = append(slices.Clone(rsA.Rows), rsB.Rows...)
				if got := Concat(a, b); !sameRelation(got, concat) {
					t.Errorf("forms %d,%d: Concat = %v, want %v", i, j, got.ResultSet(), concat)
				}
				// The union's unbound cells and id space meet a third input.
				if got, want := UnionAll(a, b).Join(a), union.Join(rsA); !sameRelation(got, want) {
					t.Errorf("forms %d,%d: (A ∪ B) ⋈ A = %v, want %v", i, j, got.ResultSet(), want)
				}
			}
		}
		for i, b := range inputs {
			if !reflect.DeepEqual(b.Cols, kept[i].Cols) || !slices.Equal(b.Dict, kept[i].Dict) {
				t.Fatalf("input %d changed", i)
			}
		}
		scanA := formsA[0]
		rsA := scanA.ResultSet()
		twice := NewResultSet(rsA.Vars...)
		twice.Rows = append(slices.Clone(rsA.Rows), rsA.Rows...)
		enc, err := AppendBatch(nil, NewSlicer(Concat(scanA, scanA)).Slice(0, 2*scanA.Len()))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		frame, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got, want := UnionAll(frame), NewResultSet().Union(twice); !sameRelation(got, want) {
			t.Errorf("UnionAll of A twice = %v, want %v", got.ResultSet(), want)
		}
		if got, want := frame.Project(frame.Vars), twice.Project(twice.Vars); !sameRelation(got, want) {
			t.Errorf("Project of A twice = %v, want %v", got.ResultSet(), want)
		}
		if got, want := frame.Join(formsB[0]), twice.Join(formsB[0].ResultSet()); !sameRelation(got, want) {
			t.Errorf("A twice ⋈ B = %v, want %v", got.ResultSet(), want)
		}
	})
}
