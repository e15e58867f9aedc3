package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The differential tests drive a Base and a reference model — a plain
// set of triples — through the same Add/Remove/Has sequence and compare
// every read the Base offers after each step. Term pools are small so
// sequences revisit triples (duplicate adds, removes of present and
// absent triples) and large enough that the live set crosses the insert
// buffer's merge threshold several times.

// modelPools are the terms an op sequence draws from.
type modelPools struct {
	subjects, props, objects []Term
}

func newModelPools() modelPools {
	var p modelPools
	for i := 0; i < 48; i++ {
		p.subjects = append(p.subjects, NewIRI(res(i)))
	}
	for _, l := range []string{"prop1", "prop2", "prop3", "prop4", "prop9"} {
		p.props = append(p.props, NewIRI(n1(l)))
	}
	p.props = append(p.props, NewIRI(RDFType))
	for i := 0; i < 48; i++ {
		p.objects = append(p.objects, NewIRI(res(i+24)))
	}
	for _, c := range []string{"C1", "C2", "C3", "C4", "C5", "C6", "C9"} {
		p.objects = append(p.objects, NewIRI(n1(c)))
	}
	p.objects = append(p.objects, NewLiteral("x"), NewLiteral("7"), NewTypedLiteral("7", XSDInteger), NewBlank("b0"))
	return p
}

// modelOp is one decoded step: kind 0 adds, 1 removes, 2 probes Has;
// live picks an existing triple (by index) instead of the pools.
type modelOp struct {
	kind    int
	live    bool
	s, p, o int
}

// baseModel pairs a Base with its reference set.
type baseModel struct {
	t      testing.TB
	schema *Schema
	pools  modelPools
	base   *Base
	set    map[Triple]bool
	live   []Triple // the set's members, for picking present triples
}

func newBaseModel(t testing.TB) *baseModel {
	return &baseModel{t: t, schema: figure1Schema(t), pools: newModelPools(), base: NewBase(), set: map[Triple]bool{}}
}

func (m *baseModel) triple(op modelOp) Triple {
	if op.live && len(m.live) > 0 {
		return m.live[(op.s*251+op.p*17+op.o)%len(m.live)]
	}
	p := m.pools
	tr := Triple{S: p.subjects[op.s%len(p.subjects)], P: p.props[op.p%len(p.props)], O: p.objects[op.o%len(p.objects)]}
	if tr.P.IRI() == RDFType && op.o%3 != 0 {
		// Type mostly into classes, so class statistics have instances.
		tr.O = p.objects[48+op.o%7]
	}
	return tr
}

// step applies op to both sides, checks its result and Gen, and returns
// the triple it touched.
func (m *baseModel) step(op modelOp) Triple {
	tr := m.triple(op)
	before := m.base.Gen()
	var got, want, mutated bool
	switch op.kind {
	case 0:
		got, want = m.base.Add(tr), !m.set[tr]
		if want {
			m.set[tr] = true
			m.live = append(m.live, tr)
		}
		mutated = want
	case 1:
		got, want = m.base.Remove(tr), m.set[tr]
		if want {
			delete(m.set, tr)
			for i, x := range m.live {
				if x == tr {
					m.live[i] = m.live[len(m.live)-1]
					m.live = m.live[:len(m.live)-1]
					break
				}
			}
		}
		mutated = want
	default:
		got, want = m.base.Has(tr), m.set[tr]
	}
	if got != want {
		m.t.Fatalf("op %d on %v returned %v, model says %v", op.kind, tr, got, want)
	}
	after := m.base.Gen()
	if mutated && after <= before {
		m.t.Fatalf("Gen %d → %d across a successful mutation of %v", before, after, tr)
	}
	if !mutated && after != before {
		m.t.Fatalf("Gen %d → %d across a no-op on %v", before, after, tr)
	}
	return tr
}

// check compares every read of the base with the model; probe supplies
// the bound terms for the eight Match masks.
func (m *baseModel) check(probe Triple) {
	t := m.t
	if m.base.Len() != len(m.set) {
		t.Fatalf("Len = %d, model has %d", m.base.Len(), len(m.set))
	}
	m.sameTriples("Triples", m.base.Triples(), func(Triple) bool { return true })
	for mask := 0; mask < 8; mask++ {
		var s, p, o Term
		if mask&1 != 0 {
			s = probe.S
		}
		if mask&2 != 0 {
			p = probe.P
		}
		if mask&4 != 0 {
			o = probe.O
		}
		keep := func(tr Triple) bool {
			return (s.Zero() || tr.S == s) && (p.Zero() || tr.P == p) && (o.Zero() || tr.O == o)
		}
		name := fmt.Sprintf("Match(mask %03b)", mask)
		want := m.sameTriples(name, m.base.Match(s, p, o), keep)
		if got := m.base.Count(s, p, o); got != want {
			t.Fatalf("Count(mask %03b) = %d, model has %d", mask, got, want)
		}
	}
	for _, pt := range m.pools.props {
		for _, schema := range []*Schema{nil, m.schema} {
			m.samePairs(pt.IRI(), schema)
		}
	}
	var props, classes []IRI
	seenP, seenC := map[IRI]bool{}, map[IRI]bool{}
	for tr := range m.set {
		if tr.P.IRI() != RDFType && !seenP[tr.P.IRI()] {
			seenP[tr.P.IRI()] = true
			props = append(props, tr.P.IRI())
		}
		if tr.P.IRI() == RDFType && tr.O.IsIRI() && !seenC[tr.O.IRI()] {
			seenC[tr.O.IRI()] = true
			classes = append(classes, tr.O.IRI())
		}
	}
	sameIRIs(t, "PropertiesUsed", m.base.PropertiesUsed(), props)
	sameIRIs(t, "ClassesUsed", m.base.ClassesUsed(), classes)
	m.sameStats()
}

// sameTriples checks that got holds exactly the model's triples passing
// keep, once each, and returns their number.
func (m *baseModel) sameTriples(name string, got []Triple, keep func(Triple) bool) int {
	seen := map[Triple]bool{}
	for _, tr := range got {
		if seen[tr] {
			m.t.Fatalf("%s returned %v twice", name, tr)
		}
		if !m.set[tr] || !keep(tr) {
			m.t.Fatalf("%s returned %v, which the model does not match", name, tr)
		}
		seen[tr] = true
	}
	want := 0
	for tr := range m.set {
		if keep(tr) {
			want++
		}
	}
	if len(got) != want {
		m.t.Fatalf("%s returned %d triples, model matches %d", name, len(got), want)
	}
	return want
}

// modelPairs is the distinct (subject, object) union over p's closure.
func (m *baseModel) modelPairs(p IRI, schema *Schema) map[Pair]bool {
	props := map[IRI]bool{p: true}
	if schema != nil {
		props = map[IRI]bool{}
		for _, sp := range schema.SubProperties(p) {
			props[sp] = true
		}
	}
	out := map[Pair]bool{}
	for tr := range m.set {
		if props[tr.P.IRI()] {
			out[Pair{X: tr.S, Y: tr.O}] = true
		}
	}
	return out
}

func (m *baseModel) samePairs(p IRI, schema *Schema) {
	want := m.modelPairs(p, schema)
	got := m.base.Pairs(p, schema)
	seen := map[Pair]bool{}
	for _, pr := range got {
		if seen[pr] || !want[pr] {
			m.t.Fatalf("Pairs(%s, schema %v) returned %v (duplicate or unknown)", p.Local(), schema != nil, pr)
		}
		seen[pr] = true
	}
	if len(got) != len(want) {
		m.t.Fatalf("Pairs(%s, schema %v) = %d pairs, model has %d", p.Local(), schema != nil, len(got), len(want))
	}
}

// sameStats recomputes CollectStats' figures from the model.
func (m *baseModel) sameStats() {
	st := CollectStats(m.base, m.schema)
	if st.Triples != len(m.set) {
		m.t.Fatalf("stats triples = %d, model has %d", st.Triples, len(m.set))
	}
	for _, pd := range m.schema.Properties() {
		pairs := m.modelPairs(pd.Name, m.schema)
		subs, objs := map[Term]bool{}, map[Term]bool{}
		for pr := range pairs {
			subs[pr.X], objs[pr.Y] = true, true
		}
		if st.PropertyCard[pd.Name] != len(pairs) || st.DistinctSubjects[pd.Name] != len(subs) ||
			st.DistinctObjects[pd.Name] != len(objs) {
			m.t.Fatalf("stats for %s = (%d, %d, %d), model (%d, %d, %d)", pd.Name.Local(),
				st.PropertyCard[pd.Name], st.DistinctSubjects[pd.Name], st.DistinctObjects[pd.Name],
				len(pairs), len(subs), len(objs))
		}
	}
	for _, cd := range m.schema.Classes() {
		want := map[Term]bool{}
		for _, c := range m.schema.SubClasses(cd.Name) {
			for tr := range m.set {
				if tr.P.IRI() == RDFType && tr.O == NewIRI(c) {
					want[tr.S] = true
				}
			}
		}
		if st.ClassCard[cd.Name] != len(want) || len(m.base.InstancesOf(cd.Name, m.schema)) != len(want) {
			m.t.Fatalf("class %s: stats %d, InstancesOf %d, model %d", cd.Name.Local(),
				st.ClassCard[cd.Name], len(m.base.InstancesOf(cd.Name, m.schema)), len(want))
		}
	}
}

func sameIRIs(t testing.TB, name string, got, want []IRI) {
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s = %v, model %v", name, got, want)
	}
}

// TestBaseDifferential runs seeded random op sequences against the model.
// Each sequence first grows the base through several buffer fills and
// merges, then drains part of it, so removals hit merged runs and the
// buffer alike.
func TestBaseDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newBaseModel(t)
			fills := 0
			for i := 0; i < 600; i++ {
				op := modelOp{s: rng.Intn(256), p: rng.Intn(256), o: rng.Intn(256)}
				switch r := rng.Intn(20); {
				case i < 400 && r < 17, i >= 400 && r < 5:
					op.kind = 0
				case r < 18:
					op.kind, op.live = 1, rng.Intn(4) != 0
				default:
					op.kind, op.live = 2, rng.Intn(2) == 0
				}
				n := m.base.Len()
				m.check(m.step(op))
				if r := m.base.runs; m.base.Len() > n && len(r[len(r)-1][spo]) >= bufCap {
					fills++
				}
			}
			if fills < 4 {
				t.Fatalf("sequence filled the insert buffer %d times, want ≥ 4", fills)
			}
			c := m.base.Clone()
			m.sameTriples("Clone", c.Triples(), func(Triple) bool { return true })
			c.Add(Statement(res(999), n1("prop1"), res(998)))
			if m.base.Len() != len(m.set) {
				t.Fatal("adding to a clone changed the original")
			}
		})
	}
}

// TestBaseLastTripleRemoval pins the removal of a property's and a
// class's only triple, which must drop them from PropertiesUsed,
// ClassesUsed and the statistics.
func TestBaseLastTripleRemoval(t *testing.T) {
	m := newBaseModel(t)
	p2 := Statement(res(1), n1("prop2"), res(2))
	c3 := Typing(res(1), n1("C3"))
	for _, tr := range []Triple{Statement(res(1), n1("prop1"), res(2)), p2, Typing(res(1), n1("C1")), c3} {
		m.base.Add(tr)
		m.set[tr] = true
	}
	m.check(p2)
	for _, tr := range []Triple{p2, c3} {
		m.base.Remove(tr)
		delete(m.set, tr)
		m.check(tr)
	}
	if got := m.base.PropertiesUsed(); len(got) != 1 || got[0] != n1("prop1") {
		t.Fatalf("PropertiesUsed after removing prop2's only triple = %v", got)
	}
	if got := m.base.ClassesUsed(); len(got) != 1 || got[0] != n1("C1") {
		t.Fatalf("ClassesUsed after removing C3's only typing = %v", got)
	}
}

// FuzzBaseOps decodes an op sequence — four bytes per op: kind, then
// subject, property and object selectors — and checks every op's result
// and Gen, and every read of the base against the model after every
// eighth op and at the end (the full check is O(n) model work, and
// checking each op would cut the fuzzer's throughput eightfold).
func FuzzBaseOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 1, 1, 2, 3, 2, 1, 2, 3})
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 4*400)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*400 {
			data = data[:4*400]
		}
		m := newBaseModel(t)
		var last Triple
		for i := 1; len(data) >= 4; i, data = i+1, data[4:] {
			op := modelOp{s: int(data[1]), p: int(data[2]), o: int(data[3])}
			switch k := data[0] % 8; {
			case k < 5:
				op.kind = 0
			case k < 7:
				op.kind, op.live = 1, data[0]&0x80 != 0
			default:
				op.kind, op.live = 2, data[0]&0x80 != 0
			}
			last = m.step(op)
			if i%8 == 0 {
				m.check(last)
			}
		}
		m.check(last)
	})
}
