package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func res(i int) IRI { return IRI(fmt.Sprintf("http://example.org/data#r%d", i)) }

func TestBaseAddRemoveHas(t *testing.T) {
	b := NewBase()
	tr := Statement(res(1), n1("prop1"), res(2))
	if !b.Add(tr) {
		t.Fatal("first Add returned false")
	}
	if b.Add(tr) {
		t.Fatal("duplicate Add returned true")
	}
	if !b.Has(tr) || b.Len() != 1 {
		t.Fatal("Has/Len wrong after insert")
	}
	if !b.Remove(tr) {
		t.Fatal("Remove returned false for present triple")
	}
	if b.Remove(tr) {
		t.Fatal("second Remove returned true")
	}
	if b.Has(tr) || b.Len() != 0 {
		t.Fatal("Has/Len wrong after remove")
	}
}

func TestBaseMatchWildcards(t *testing.T) {
	b := NewBase()
	b.Add(Statement(res(1), n1("prop1"), res(2)))
	b.Add(Statement(res(1), n1("prop2"), res(3)))
	b.Add(Statement(res(4), n1("prop1"), res(2)))
	b.Add(Typing(res(1), n1("C1")))

	cases := []struct {
		s, p, o Term
		want    int
	}{
		{NewIRI(res(1)), Term{}, Term{}, 3},
		{Term{}, NewIRI(n1("prop1")), Term{}, 2},
		{Term{}, Term{}, NewIRI(res(2)), 2},
		{NewIRI(res(1)), NewIRI(n1("prop1")), Term{}, 1},
		{NewIRI(res(1)), NewIRI(n1("prop1")), NewIRI(res(2)), 1},
		{Term{}, Term{}, Term{}, 4},
		{NewIRI(res(9)), Term{}, Term{}, 0},
		{Term{}, NewIRI(n1("prop9")), Term{}, 0},
	}
	for i, c := range cases {
		if got := len(b.Match(c.s, c.p, c.o)); got != c.want {
			t.Errorf("case %d: Match = %d results, want %d", i, got, c.want)
		}
		if got := b.Count(c.s, c.p, c.o); got != c.want {
			t.Errorf("case %d: Count = %d, want %d", i, got, c.want)
		}
	}
}

func TestBaseMatchFuncEarlyStop(t *testing.T) {
	b := NewBase()
	for i := 0; i < 10; i++ {
		b.Add(Statement(res(i), n1("prop1"), res(i+100)))
	}
	n := 0
	b.MatchFunc(Term{}, NewIRI(n1("prop1")), Term{}, func(Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop delivered %d triples, want 3", n)
	}
}

func TestBaseInstancesOfWithSubclasses(t *testing.T) {
	s := figure1Schema(t)
	b := NewBase()
	b.Add(Typing(res(1), n1("C1")))
	b.Add(Typing(res(2), n1("C5"))) // C5 ⊑ C1
	b.Add(Typing(res(3), n1("C2")))

	got := b.InstancesOf(n1("C1"), s)
	if len(got) != 2 {
		t.Errorf("InstancesOf(C1) with schema = %v, want r1 and r2", got)
	}
	direct := b.InstancesOf(n1("C1"), nil)
	if len(direct) != 1 {
		t.Errorf("InstancesOf(C1) without schema = %v, want only r1", direct)
	}
}

func TestBasePairsWithSubproperties(t *testing.T) {
	s := figure1Schema(t)
	b := NewBase()
	b.Add(Statement(res(1), n1("prop1"), res(2)))
	b.Add(Statement(res(3), n1("prop4"), res(4))) // prop4 ⊑ prop1
	b.Add(Statement(res(5), n1("prop2"), res(6)))

	got := b.Pairs(n1("prop1"), s)
	if len(got) != 2 {
		t.Errorf("Pairs(prop1) with schema = %v, want 2 pairs (prop1 + prop4)", got)
	}
	direct := b.Pairs(n1("prop1"), nil)
	if len(direct) != 1 {
		t.Errorf("Pairs(prop1) without schema = %v, want 1 pair", direct)
	}
	// Duplicate pair via both properties must deduplicate.
	b.Add(Statement(res(1), n1("prop4"), res(2)))
	got = b.Pairs(n1("prop1"), s)
	if len(got) != 2 {
		t.Errorf("Pairs should deduplicate identical pairs, got %v", got)
	}
}

func TestBasePropertiesAndClassesUsed(t *testing.T) {
	b := NewBase()
	b.Add(Statement(res(1), n1("prop1"), res(2)))
	b.Add(Statement(res(1), n1("prop2"), res(3)))
	b.Add(Typing(res(1), n1("C1")))
	props := b.PropertiesUsed()
	if len(props) != 2 {
		t.Errorf("PropertiesUsed = %v (rdf:type must be excluded)", props)
	}
	classes := b.ClassesUsed()
	if len(classes) != 1 || classes[0] != n1("C1") {
		t.Errorf("ClassesUsed = %v", classes)
	}
}

func TestBaseClone(t *testing.T) {
	b := NewBase()
	b.Add(Statement(res(1), n1("prop1"), res(2)))
	c := b.Clone()
	c.Add(Statement(res(3), n1("prop1"), res(4)))
	if b.Len() != 1 || c.Len() != 2 {
		t.Errorf("Clone not independent: b=%d c=%d", b.Len(), c.Len())
	}
}

func TestBaseConcurrentAccess(t *testing.T) {
	b := NewBase()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Add(Statement(res(g*1000+i), n1("prop1"), res(i)))
				b.Match(Term{}, NewIRI(n1("prop1")), Term{})
				b.Count(NewIRI(res(g*1000+i)), Term{}, Term{})
				// Dictionary snapshots are read after the base lock is
				// released, while other goroutines keep interning.
				xs, ys, terms := b.PairIDs(n1("prop1"), nil)
				if len(xs) == 0 || terms[xs[0]].Zero() || terms[ys[len(ys)-1]].Zero() {
					t.Error("pair ids do not resolve in their snapshot")
				}
				if i%50 == 0 {
					CollectStats(b, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 8*200 {
		t.Errorf("Len = %d after concurrent adds, want %d", b.Len(), 8*200)
	}
}

// TestBaseIndexAgreementProperty: for random triple sets, the three
// indexes must agree — every triple reachable via a subject scan must be
// reachable via predicate and object scans, and Len must match the number
// of distinct triples inserted.
func TestBaseIndexAgreementProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBase()
		distinct := map[Triple]bool{}
		for i := 0; i < int(n); i++ {
			tr := Statement(res(rng.Intn(10)), n1(fmt.Sprintf("p%d", rng.Intn(4))), res(rng.Intn(10)))
			b.Add(tr)
			distinct[tr] = true
		}
		if b.Len() != len(distinct) {
			return false
		}
		for tr := range distinct {
			if !b.Has(tr) {
				return false
			}
			if len(b.Match(tr.S, Term{}, Term{})) == 0 ||
				len(b.Match(Term{}, tr.P, Term{})) == 0 ||
				len(b.Match(Term{}, Term{}, tr.O)) == 0 {
				return false
			}
		}
		// Full scan must enumerate exactly the distinct set.
		return len(b.Triples()) == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBaseRemoveInverseProperty: removing everything inserted leaves the
// base empty with every run dropped (no emptied run left behind for Match
// to search).
func TestBaseRemoveInverseProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBase()
		var ts []Triple
		for i := 0; i < int(n); i++ {
			tr := Statement(res(rng.Intn(8)), n1(fmt.Sprintf("p%d", rng.Intn(3))), res(rng.Intn(8)))
			if b.Add(tr) {
				ts = append(ts, tr)
			}
		}
		for _, tr := range ts {
			if !b.Remove(tr) {
				return false
			}
		}
		return b.Len() == 0 && len(b.Triples()) == 0 &&
			len(b.runs) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
