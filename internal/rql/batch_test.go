package rql

import (
	"reflect"
	"strings"
	"testing"

	"sqpeer/internal/rdf"
)

func termI(s string) rdf.Term { return rdf.NewIRI(rdf.IRI(s)) }

func rsOf(vars []string, rows ...Row) *ResultSet {
	rs := NewResultSet(vars...)
	for _, r := range rows {
		rs.Add(r)
	}
	return rs
}

// sortedEqual compares two result sets by schema and sorted rendered rows.
func sortedEqual(t *testing.T, what string, got, want *ResultSet) {
	t.Helper()
	if strings.Join(got.Vars, "\x00") != strings.Join(want.Vars, "\x00") {
		t.Fatalf("%s: vars %v, want %v", what, got.Vars, want.Vars)
	}
	g, w := got.Sorted(), want.Sorted()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: rows\n%v\nwant\n%v", what, g, w)
	}
}

func TestBatchOfRoundTrip(t *testing.T) {
	rs := rsOf([]string{"X", "Y"},
		Row{"X": termI("a"), "Y": termI("b")},
		Row{"X": termI("a")}, // Y unbound
		Row{"Y": rdf.NewTypedLiteral("héllo — ünïcode", rdf.XSDString)},
		Row{"X": rdf.NewBlank("b0"), "Y": rdf.NewLiteral("plain")},
	)
	b := BatchOf(rs)
	if b.Len() != rs.Len() {
		t.Fatalf("batch has %d rows, want %d", b.Len(), rs.Len())
	}
	back := b.ResultSet()
	sortedEqual(t, "BatchOf∘ResultSet", back, rs)
	// Order must be preserved exactly, not just as a set.
	for i := range rs.Rows {
		for _, v := range rs.Vars {
			if back.Rows[i][v] != rs.Rows[i][v] {
				t.Fatalf("row %d var %s: %v, want %v", i, v, back.Rows[i][v], rs.Rows[i][v])
			}
		}
	}
}

func TestBatchOfEmptyAndNil(t *testing.T) {
	if got := BatchOf(nil).Len(); got != 0 {
		t.Fatalf("BatchOf(nil).Len() = %d", got)
	}
	b := BatchOf(NewResultSet("X"))
	if b.Len() != 0 || len(b.Vars) != 1 {
		t.Fatalf("empty conversion: len=%d vars=%v", b.Len(), b.Vars)
	}
	if got := b.ResultSet(); got.Len() != 0 || len(got.Vars) != 1 {
		t.Fatalf("empty round-trip: %v", got)
	}
}

// TestBatchOpsMatchScalar drives Union/Join/Project through both
// representations and requires identical relations, including row order —
// the equivalence the batched data plane rests on.
func TestBatchOpsMatchScalar(t *testing.T) {
	left := rsOf([]string{"X", "Y"},
		Row{"X": termI("a"), "Y": termI("b")},
		Row{"X": termI("a"), "Y": termI("b")}, // duplicate
		Row{"X": termI("c"), "Y": termI("d")},
		Row{"X": termI("e")}, // Y unbound
	)
	right := rsOf([]string{"Y", "Z"},
		Row{"Y": termI("b"), "Z": termI("z1")},
		Row{"Y": termI("b"), "Z": termI("z2")},
		Row{"Y": termI("d"), "Z": termI("z1")},
		Row{"Y": termI("nope"), "Z": termI("z3")},
	)

	check := func(what string, scalar *ResultSet, batch *Batch) {
		t.Helper()
		got := batch.ResultSet()
		sortedEqual(t, what, got, scalar)
		for i := range scalar.Rows {
			for _, v := range scalar.Vars {
				if got.Rows[i][v] != scalar.Rows[i][v] {
					t.Fatalf("%s: row %d var %s differs in order-sensitive compare", what, i, v)
				}
			}
		}
	}

	check("union", left.Union(right), BatchOf(left).Union(BatchOf(right)))
	check("join", left.Join(right), BatchOf(left).Join(BatchOf(right)))
	check("project", left.Project([]string{"X"}), BatchOf(left).Project([]string{"X"}))
	check("project-missing-var", left.Project([]string{"X", "Q"}),
		BatchOf(left).Project([]string{"X", "Q"}))
}

func TestBatchJoinDisjointVars(t *testing.T) {
	// No shared variables: natural join degenerates to a cross product.
	left := rsOf([]string{"X"}, Row{"X": termI("a")}, Row{"X": termI("b")})
	right := rsOf([]string{"Z"}, Row{"Z": termI("p")}, Row{"Z": termI("q")})
	scalar := left.Join(right)
	got := BatchOf(left).Join(BatchOf(right)).ResultSet()
	sortedEqual(t, "cross join", got, scalar)
	if got.Len() != 4 {
		t.Fatalf("cross product has %d rows, want 4", got.Len())
	}
}

func TestBatchConcatAndSlice(t *testing.T) {
	rs := rsOf([]string{"X", "Y"},
		Row{"X": termI("a"), "Y": termI("b")},
		Row{"X": termI("c")},
		Row{"X": termI("d"), "Y": termI("e")},
		Row{"X": termI("a"), "Y": termI("e")},
	)
	b := BatchOf(rs)
	sl := NewSlicer(b)
	var parts []*Batch
	for i := 0; i < b.Len(); i += 2 {
		end := i + 2
		if end > b.Len() {
			end = b.Len()
		}
		s := sl.Slice(i, end)
		// Slices must compact the dictionary: no slice needs more terms
		// than it has cells.
		if len(s.Dict) > (end-i)*len(s.Vars) {
			t.Fatalf("slice dict has %d terms for %d rows", len(s.Dict), end-i)
		}
		parts = append(parts, s)
	}
	back := Concat(parts...)
	sortedEqual(t, "slice+concat", back.ResultSet(), rs)
	if got := sl.Slice(3, 1); got.Len() != 0 {
		t.Fatalf("inverted slice has %d rows", got.Len())
	}
	if got := sl.Slice(-5, 100); got.Len() != b.Len() {
		t.Fatalf("clamped slice has %d rows, want %d", got.Len(), b.Len())
	}
}

func TestBatchZeroVariables(t *testing.T) {
	// A projection onto no variables keeps cardinality 0 or 1.
	rs := rsOf([]string{"X"}, Row{"X": termI("a")}, Row{"X": termI("b")})
	scalar := rs.Project(nil)
	got := BatchOf(rs).Project(nil)
	if got.Len() != scalar.Len() {
		t.Fatalf("zero-var project: %d rows, want %d", got.Len(), scalar.Len())
	}
	enc := encode(t, got)
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("decode zero-var batch: %v", err)
	}
	if dec.Len() != got.Len() || len(dec.Vars) != 0 {
		t.Fatalf("zero-var round trip: len=%d vars=%v", dec.Len(), dec.Vars)
	}
}

// TestTermStoreSharedPlane pins the shared-dictionary plane to the
// self-contained one: rebasing inputs onto one store must change no
// answers, and same-store operators stay on the store.
func TestTermStoreSharedPlane(t *testing.T) {
	a := rsOf([]string{"X", "Y"},
		Row{"X": termI("a"), "Y": termI("b")},
		Row{"X": termI("c"), "Y": termI("d")},
		Row{"X": termI("a")},
	)
	b := rsOf([]string{"Y", "Z"},
		Row{"Y": termI("b"), "Z": termI("e")},
		Row{"Y": termI("d"), "Z": termI("f")},
		Row{"Y": termI("x"), "Z": termI("y")},
	)
	st := NewTermStore()
	sa, sb := BatchOf(a).Rebase(st), BatchOf(b).Rebase(st)
	if sa.space != st || sb.space != st {
		t.Fatalf("rebased batches not store-backed")
	}
	sortedEqual(t, "rebase(a)", sa.ResultSet(), a)
	sortedEqual(t, "rebase(b)", sb.ResultSet(), b)

	join := sa.Join(sb)
	if join.space != st {
		t.Fatalf("same-store join lost the store")
	}
	sortedEqual(t, "same-store join", join.ResultSet(), BatchOf(a).Join(BatchOf(b)).ResultSet())
	sortedEqual(t, "same-store union", sa.Union(sb).ResultSet(), BatchOf(a).Union(BatchOf(b)).ResultSet())
	sortedEqual(t, "same-store project", join.Project([]string{"X", "Z"}).ResultSet(),
		BatchOf(a).Join(BatchOf(b)).Project([]string{"X", "Z"}).ResultSet())

	// Mixed: two stores. The join answers on the first input's store.
	mixed := sa.Join(BatchOf(b))
	if mixed.space != st {
		t.Fatalf("two-store join did not rebase onto the first store")
	}
	sortedEqual(t, "mixed join", mixed.ResultSet(), BatchOf(a).Join(BatchOf(b)).ResultSet())

	// A store-backed slice re-dictionaries to frame-local ids.
	sl := NewSlicer(join).Slice(0, join.Len())
	if sl.space != nil {
		t.Fatalf("wire slice must be self-contained")
	}
	sortedEqual(t, "slice of store-backed", sl.ResultSet(), join.ResultSet())
}

// TestTermStoreConcurrentIntern exercises the store's lock under the
// race detector: concurrent rebases onto one store must agree — one id
// per distinct term, every id resolvable through any later snapshot.
func TestTermStoreConcurrentIntern(t *testing.T) {
	st := NewTermStore()
	const workers = 8
	done := make(chan *Batch, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rs := NewResultSet("X")
			for i := 0; i < 300; i++ {
				rs.Rows = append(rs.Rows, Row{"X": termI("t" + string(rune('0'+(i+w)%10)) + string(rune('a'+i%26)))})
			}
			done <- BatchOf(rs).Rebase(st)
		}(w)
	}
	ids := map[rdf.Term]int32{}
	var last *Batch
	for w := 0; w < workers; w++ {
		b := <-done
		for _, id := range b.Cols[0] {
			term := b.Dict[id]
			if prev, ok := ids[term]; ok && prev != id {
				t.Fatalf("term %v interned as both %d and %d", term, prev, id)
			}
			ids[term] = id
		}
		if last == nil || len(b.Dict) > len(last.Dict) {
			last = b
		}
	}
	final := BatchOf(last.ResultSet()).Rebase(st)
	if len(final.Dict) != len(ids) {
		t.Fatalf("store holds %d terms, want %d", len(final.Dict), len(ids))
	}
	for term, id := range ids {
		if final.Dict[id] != term {
			t.Fatalf("snapshot term at %d = %v, want %v", id, final.Dict[id], term)
		}
	}
}
