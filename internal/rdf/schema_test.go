package rdf

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

const testNS = "http://example.org/n1#"

// figure1Schema builds the community schema of the paper's Figure 1:
// classes C1..C6, properties prop1(C1→C2), prop2(C2→C3), prop3(C3→C4),
// subclasses C5⊑C1, C6⊑C2, and subproperty prop4(C5→C6) ⊑ prop1.
func figure1Schema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema(testNS)
	for _, c := range []string{"C1", "C2", "C3", "C4", "C5", "C6"} {
		s.MustAddClass(IRI(testNS + c))
	}
	s.MustAddProperty(IRI(testNS+"prop1"), IRI(testNS+"C1"), IRI(testNS+"C2"))
	s.MustAddProperty(IRI(testNS+"prop2"), IRI(testNS+"C2"), IRI(testNS+"C3"))
	s.MustAddProperty(IRI(testNS+"prop3"), IRI(testNS+"C3"), IRI(testNS+"C4"))
	s.MustSetSubClassOf(IRI(testNS+"C5"), IRI(testNS+"C1"))
	s.MustSetSubClassOf(IRI(testNS+"C6"), IRI(testNS+"C2"))
	s.MustAddProperty(IRI(testNS+"prop4"), IRI(testNS+"C5"), IRI(testNS+"C6"))
	s.MustSetSubPropertyOf(IRI(testNS+"prop4"), IRI(testNS+"prop1"))
	if err := s.Validate(); err != nil {
		t.Fatalf("figure-1 schema invalid: %v", err)
	}
	return s
}

func n1(local string) IRI { return IRI(testNS + local) }

func TestSchemaDeclarations(t *testing.T) {
	s := figure1Schema(t)
	if !s.HasClass(n1("C1")) || !s.HasProperty(n1("prop1")) {
		t.Fatal("declared class/property missing")
	}
	if s.HasClass(n1("C9")) || s.HasProperty(n1("prop9")) {
		t.Fatal("undeclared class/property reported present")
	}
	p, ok := s.PropertyByName(n1("prop1"))
	if !ok || p.Domain != n1("C1") || p.Range != n1("C2") {
		t.Fatalf("prop1 declaration wrong: %+v", p)
	}
	if len(s.Classes()) != 6 || len(s.Properties()) != 4 {
		t.Fatalf("got %d classes, %d properties", len(s.Classes()), len(s.Properties()))
	}
}

func TestSchemaDuplicateDeclarationErrors(t *testing.T) {
	s := figure1Schema(t)
	if err := s.AddClass(n1("C1")); err == nil {
		t.Error("duplicate class accepted")
	}
	if err := s.AddProperty(n1("prop1"), n1("C1"), n1("C2")); err == nil {
		t.Error("duplicate property accepted")
	}
}

func TestSchemaUndeclaredEndpointsRejected(t *testing.T) {
	s := NewSchema(testNS)
	s.MustAddClass(n1("C1"))
	if err := s.AddProperty(n1("p"), n1("C1"), n1("Cmissing")); err == nil {
		t.Error("undeclared range accepted")
	}
	if err := s.AddProperty(n1("p"), n1("Cmissing"), n1("C1")); err == nil {
		t.Error("undeclared domain accepted")
	}
	if err := s.SetSubClassOf(n1("C1"), n1("Cmissing")); err == nil {
		t.Error("subClassOf with undeclared super accepted")
	}
	if err := s.SetSubPropertyOf(n1("p"), n1("q")); err == nil {
		t.Error("subPropertyOf on undeclared properties accepted")
	}
}

func TestSchemaLiteralRange(t *testing.T) {
	s := NewSchema(testNS)
	s.MustAddClass(n1("C1"))
	if err := s.AddProperty(n1("title"), n1("C1"), RDFSLiteral); err != nil {
		t.Fatalf("literal-ranged property rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSubsumptionClosure(t *testing.T) {
	s := figure1Schema(t)
	// Reflexive.
	if !s.IsSubClassOf(n1("C1"), n1("C1")) || !s.IsSubPropertyOf(n1("prop1"), n1("prop1")) {
		t.Error("subsumption not reflexive")
	}
	// Direct edges from Figure 1.
	if !s.IsSubClassOf(n1("C5"), n1("C1")) || !s.IsSubClassOf(n1("C6"), n1("C2")) {
		t.Error("direct subclass edges missing")
	}
	if !s.IsSubPropertyOf(n1("prop4"), n1("prop1")) {
		t.Error("prop4 ⊑ prop1 missing — the paper's routing example depends on it")
	}
	// Negative directions.
	if s.IsSubClassOf(n1("C1"), n1("C5")) {
		t.Error("subsumption inverted for classes")
	}
	if s.IsSubPropertyOf(n1("prop1"), n1("prop4")) {
		t.Error("subsumption inverted for properties")
	}
	if s.IsSubPropertyOf(n1("prop2"), n1("prop1")) {
		t.Error("unrelated properties reported subsumed")
	}
	// Everything ⊑ rdfs:Resource.
	if !s.IsSubClassOf(n1("C3"), RDFSResource) {
		t.Error("C3 ⊑ rdfs:Resource should hold")
	}
}

func TestSubsumptionTransitive(t *testing.T) {
	s := NewSchema(testNS)
	for _, c := range []string{"A", "B", "C", "D"} {
		s.MustAddClass(n1(c))
	}
	s.MustSetSubClassOf(n1("C"), n1("B"))
	s.MustSetSubClassOf(n1("B"), n1("A"))
	s.MustSetSubClassOf(n1("D"), n1("C"))
	if !s.IsSubClassOf(n1("D"), n1("A")) {
		t.Error("transitive closure D ⊑ A missing")
	}
	got := s.SuperClasses(n1("D"))
	if len(got) != 4 {
		t.Errorf("SuperClasses(D) = %v, want 4 entries", got)
	}
	subsOfA := s.SubClasses(n1("A"))
	if len(subsOfA) != 4 {
		t.Errorf("SubClasses(A) = %v, want 4 entries", subsOfA)
	}
}

func TestSubsumptionCycleIsEquivalence(t *testing.T) {
	s := NewSchema(testNS)
	s.MustAddClass(n1("X"))
	s.MustAddClass(n1("Y"))
	s.MustSetSubClassOf(n1("X"), n1("Y"))
	s.MustSetSubClassOf(n1("Y"), n1("X"))
	if !s.IsSubClassOf(n1("X"), n1("Y")) || !s.IsSubClassOf(n1("Y"), n1("X")) {
		t.Error("cyclic subclass edges should imply mutual subsumption")
	}
}

func TestSubPropertyDomainRangeValidation(t *testing.T) {
	s := NewSchema(testNS)
	for _, c := range []string{"C1", "C2", "C3"} {
		s.MustAddClass(n1(c))
	}
	s.MustAddProperty(n1("p"), n1("C1"), n1("C2"))
	// q's domain C3 is not a subclass of C1, so q ⊑ p must be rejected.
	s.MustAddProperty(n1("q"), n1("C3"), n1("C2"))
	if err := s.SetSubPropertyOf(n1("q"), n1("p")); err == nil {
		t.Fatal("incompatible subPropertyOf accepted")
	}
	// After rejection the hierarchy must be unchanged.
	if s.IsSubPropertyOf(n1("q"), n1("p")) {
		t.Fatal("rejected edge leaked into the closure")
	}
}

func TestSchemaValidateDetectsLateBreakage(t *testing.T) {
	s := figure1Schema(t)
	// Manually corrupt: redeclare prop4's domain so it no longer ⊑ C1.
	p, _ := s.PropertyByName(n1("prop4"))
	p.Domain = n1("C3")
	s.dirty.Store(true)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed broken subproperty domain")
	}
}

func TestSubAndSuperListsAreSorted(t *testing.T) {
	s := figure1Schema(t)
	subs := s.SubProperties(n1("prop1"))
	if len(subs) != 2 || subs[0] != n1("prop1") || subs[1] != n1("prop4") {
		t.Errorf("SubProperties(prop1) = %v", subs)
	}
	supers := s.SuperProperties(n1("prop4"))
	if len(supers) != 2 || supers[0] != n1("prop1") || supers[1] != n1("prop4") {
		t.Errorf("SuperProperties(prop4) = %v", supers)
	}
}

func TestSchemaString(t *testing.T) {
	s := figure1Schema(t)
	out := s.String()
	for _, want := range []string{"class C5 ⊑ C1", "property prop4: C5 → C6 ⊑ prop1", "property prop1: C1 → C2"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestSubsumptionPartialOrderProperty checks, over random hierarchies, the
// partial-order laws the routing algorithm's soundness rests on:
// reflexivity and transitivity of IsSubClassOf.
func TestSubsumptionPartialOrderProperty(t *testing.T) {
	names := []IRI{}
	for _, c := range []string{"K0", "K1", "K2", "K3", "K4", "K5", "K6", "K7"} {
		names = append(names, n1(c))
	}
	build := func(edges []uint8) *Schema {
		s := NewSchema(testNS)
		for _, c := range names {
			s.MustAddClass(c)
		}
		for _, e := range edges {
			from := names[int(e>>4)%len(names)]
			to := names[int(e&0xf)%len(names)]
			_ = s.SetSubClassOf(from, to)
		}
		return s
	}
	prop := func(edges []uint8) bool {
		s := build(edges)
		for _, a := range names {
			if !s.IsSubClassOf(a, a) {
				return false
			}
			for _, b := range names {
				for _, c := range names {
					if s.IsSubClassOf(a, b) && s.IsSubClassOf(b, c) && !s.IsSubClassOf(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestClosureListsMatchInversion checks the precomputed closure lists
// over random hierarchies: each Sub* list must equal a brute-force
// inversion of the up-closures (every node whose up-set holds the
// argument, sorted) and each Super* list the sorted up-set, before and
// after a mutation re-dirties the schema; and appending to a returned
// list must not write into the schema's copy.
func TestClosureListsMatchInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var classes, props []IRI
	for i := 0; i < 10; i++ {
		classes = append(classes, IRI(testNS+"K"+strconv.Itoa(i)))
		props = append(props, IRI(testNS+"p"+strconv.Itoa(i)))
	}
	addEdges := func(s *Schema, n int) {
		for i := 0; i < n; i++ {
			a, b := rng.Intn(len(classes)), rng.Intn(len(classes))
			_ = s.SetSubClassOf(classes[a], classes[b])
			a, b = rng.Intn(len(props)), rng.Intn(len(props))
			_ = s.SetSubPropertyOf(props[a], props[b])
		}
	}
	invert := func(up map[IRI]map[IRI]bool, x IRI) []IRI {
		var out []IRI
		for n, ups := range up {
			if ups[x] {
				out = append(out, n)
			}
		}
		slices.Sort(out)
		return out
	}
	// read checks one reader's list against want, and that a caller's
	// append to it, and a write through the appended slice, leave the
	// schema's list as it was.
	read := func(name string, x IRI, reader func(IRI) []IRI, want []IRI) {
		t.Helper()
		if got := reader(x); !slices.Equal(got, want) {
			t.Fatalf("%s(%s) = %v, want %v", name, x.Local(), got, want)
		}
		grown := append(reader(x), "intruder")
		grown[0] = "intruder"
		if got := reader(x); !slices.Equal(got, want) {
			t.Fatalf("%s(%s) after a caller's append = %v, want %v", name, x.Local(), got, want)
		}
	}
	undeclared := IRI(testNS + "undeclared")
	check := func(s *Schema) {
		t.Helper()
		c := s.rebuild()
		for _, x := range append(slices.Clone(classes), undeclared) {
			read("SubClasses", x, s.SubClasses, invert(c.classUp, x))
			read("SuperClasses", x, s.SuperClasses, sortedKeys(c.classUp[x]))
		}
		for _, x := range append(slices.Clone(props), undeclared) {
			read("SubProperties", x, s.SubProperties, invert(c.propUp, x))
			read("SuperProperties", x, s.SuperProperties, sortedKeys(c.propUp[x]))
		}
	}
	for trial := 0; trial < 20; trial++ {
		s := NewSchema(testNS)
		for _, c := range classes {
			s.MustAddClass(c)
		}
		for _, p := range props {
			s.MustAddProperty(p, classes[0], classes[0])
		}
		addEdges(s, rng.Intn(12))
		check(s)
		addEdges(s, 1+rng.Intn(4))
		check(s)
	}
}
