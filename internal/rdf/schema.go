package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Class is an RDF/S class declaration in a community schema.
type Class struct {
	// Name is the class IRI.
	Name IRI
	// Comment is an optional human-readable description.
	Comment string
}

// Property is an RDF/S property declaration with its domain and range
// classes. Range may also be a literal datatype class (e.g. rdfs:Literal)
// for attribute-like properties.
type Property struct {
	// Name is the property IRI.
	Name IRI
	// Domain is the class of subjects the property applies to.
	Domain IRI
	// Range is the class (or literal type) of the property's objects.
	Range IRI
	// Comment is an optional human-readable description.
	Comment string
}

// Schema is a community RDF/S schema: classes and properties within one or
// more namespaces, plus the rdfs:subClassOf and rdfs:subPropertyOf
// hierarchies. Schemas are the intensional backbone of a Semantic Overlay
// Network: query patterns and active-schemas are both expressed against a
// Schema, and the routing algorithm's subsumption checks delegate to it.
//
// Schema methods are not safe for concurrent mutation; concurrent reads
// are safe at any time (the lazy closure rebuild is internally
// synchronized, so many goroutines may query subsumption while the first
// read after a mutation recomputes the closures).
type Schema struct {
	// Name identifies the schema, conventionally its primary namespace IRI.
	Name string

	classes    map[IRI]*Class
	properties map[IRI]*Property

	// direct super edges
	superClass map[IRI][]IRI
	superProp  map[IRI][]IRI

	// closed holds the transitive-reflexive closures, rebuilt lazily: a
	// whole immutable snapshot swapped atomically so concurrent readers
	// never observe a half-built closure. dirty flags that a mutation
	// invalidated it; rebuildMu serializes the (rare) rebuilds.
	closed    atomic.Pointer[closures]
	dirty     atomic.Bool
	rebuildMu sync.Mutex
}

// closures is an immutable snapshot of the schema's hierarchies: the
// up-closures as sets, for the subsumption tests, and the down-closures
// as sorted lists, which the Sub* readers return as they are (every scan
// expands its property through one). The lists are capacity-clipped, so
// a caller's append copies instead of writing into the snapshot.
type closures struct {
	classUp map[IRI]map[IRI]bool // class -> all superclasses incl. itself
	propUp  map[IRI]map[IRI]bool // prop  -> all superproperties incl. itself

	subClasses map[IRI][]IRI // class -> all subclasses incl. itself, sorted
	subProps   map[IRI][]IRI // prop  -> all subproperties incl. itself, sorted
}

// NewSchema returns an empty schema with the given name.
func NewSchema(name string) *Schema {
	s := &Schema{
		Name:       name,
		classes:    map[IRI]*Class{},
		properties: map[IRI]*Property{},
		superClass: map[IRI][]IRI{},
		superProp:  map[IRI][]IRI{},
	}
	s.dirty.Store(true)
	return s
}

// AddClass declares a class. Re-declaring an existing class is an error so
// schema merge bugs surface early.
func (s *Schema) AddClass(name IRI) error {
	if _, ok := s.classes[name]; ok {
		return fmt.Errorf("rdf: class %s already declared in schema %s", name, s.Name)
	}
	s.classes[name] = &Class{Name: name}
	s.dirty.Store(true)
	return nil
}

// MustAddClass is AddClass for schema literals in tests and examples; it
// panics on error.
func (s *Schema) MustAddClass(name IRI) {
	if err := s.AddClass(name); err != nil {
		panic(err)
	}
}

// AddProperty declares a property with its domain and range. Both end-point
// classes must already be declared unless the range is a literal type.
func (s *Schema) AddProperty(name, domain, rng IRI) error {
	if _, ok := s.properties[name]; ok {
		return fmt.Errorf("rdf: property %s already declared in schema %s", name, s.Name)
	}
	if _, ok := s.classes[domain]; !ok {
		return fmt.Errorf("rdf: property %s: domain class %s not declared", name, domain)
	}
	if !isLiteralType(rng) {
		if _, ok := s.classes[rng]; !ok {
			return fmt.Errorf("rdf: property %s: range class %s not declared", name, rng)
		}
	}
	s.properties[name] = &Property{Name: name, Domain: domain, Range: rng}
	s.dirty.Store(true)
	return nil
}

// MustAddProperty is AddProperty that panics on error.
func (s *Schema) MustAddProperty(name, domain, rng IRI) {
	if err := s.AddProperty(name, domain, rng); err != nil {
		panic(err)
	}
}

func isLiteralType(c IRI) bool {
	return c == RDFSLiteral || c == XSDString || c == XSDInteger
}

// SetSubClassOf records that sub rdfs:subClassOf super. Both classes must
// be declared.
func (s *Schema) SetSubClassOf(sub, super IRI) error {
	if _, ok := s.classes[sub]; !ok {
		return fmt.Errorf("rdf: subClassOf: class %s not declared", sub)
	}
	if _, ok := s.classes[super]; !ok {
		return fmt.Errorf("rdf: subClassOf: class %s not declared", super)
	}
	for _, existing := range s.superClass[sub] {
		if existing == super {
			return nil
		}
	}
	s.superClass[sub] = append(s.superClass[sub], super)
	s.dirty.Store(true)
	return nil
}

// MustSetSubClassOf is SetSubClassOf that panics on error.
func (s *Schema) MustSetSubClassOf(sub, super IRI) {
	if err := s.SetSubClassOf(sub, super); err != nil {
		panic(err)
	}
}

// SetSubPropertyOf records that sub rdfs:subPropertyOf super. RDF/S
// requires the subproperty's domain and range to be subsumed by the
// superproperty's; this is validated eagerly so invalid hierarchies are
// rejected at schema-construction time.
func (s *Schema) SetSubPropertyOf(sub, super IRI) error {
	ps, ok := s.properties[sub]
	if !ok {
		return fmt.Errorf("rdf: subPropertyOf: property %s not declared", sub)
	}
	pp, ok := s.properties[super]
	if !ok {
		return fmt.Errorf("rdf: subPropertyOf: property %s not declared", super)
	}
	for _, existing := range s.superProp[sub] {
		if existing == super {
			return nil
		}
	}
	s.superProp[sub] = append(s.superProp[sub], super)
	s.dirty.Store(true)
	// Validate domain/range compatibility with the new edge in place.
	if !s.IsSubClassOf(ps.Domain, pp.Domain) || !s.isSubRange(ps.Range, pp.Range) {
		// roll back
		edges := s.superProp[sub]
		s.superProp[sub] = edges[:len(edges)-1]
		s.dirty.Store(true)
		return fmt.Errorf("rdf: subPropertyOf %s ⊑ %s: domain/range of %s not subsumed by %s",
			sub, super, sub, super)
	}
	return nil
}

// MustSetSubPropertyOf is SetSubPropertyOf that panics on error.
func (s *Schema) MustSetSubPropertyOf(sub, super IRI) {
	if err := s.SetSubPropertyOf(sub, super); err != nil {
		panic(err)
	}
}

func (s *Schema) isSubRange(sub, super IRI) bool {
	if isLiteralType(sub) || isLiteralType(super) {
		return sub == super || super == RDFSLiteral
	}
	return s.IsSubClassOf(sub, super)
}

// HasClass reports whether the class is declared.
func (s *Schema) HasClass(c IRI) bool { _, ok := s.classes[c]; return ok }

// HasProperty reports whether the property is declared.
func (s *Schema) HasProperty(p IRI) bool { _, ok := s.properties[p]; return ok }

// ClassByName returns the class declaration.
func (s *Schema) ClassByName(c IRI) (*Class, bool) { cl, ok := s.classes[c]; return cl, ok }

// PropertyByName returns the property declaration.
func (s *Schema) PropertyByName(p IRI) (*Property, bool) {
	pr, ok := s.properties[p]
	return pr, ok
}

// Classes returns all declared classes in sorted IRI order.
func (s *Schema) Classes() []*Class {
	out := make([]*Class, 0, len(s.classes))
	for _, c := range s.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Properties returns all declared properties in sorted IRI order.
func (s *Schema) Properties() []*Property {
	out := make([]*Property, 0, len(s.properties))
	for _, p := range s.properties {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// rebuild returns the current closure snapshot, recomputing the
// transitive-reflexive closures of the class and property hierarchies if a
// mutation invalidated them. Cycles (legal in RDFS, implying equivalence)
// are handled naturally by the fixpoint. Safe for concurrent callers: the
// rebuild is serialized and the snapshot swapped atomically, so racing
// readers either see the old complete snapshot or the new one.
func (s *Schema) rebuild() *closures {
	if !s.dirty.Load() {
		if c := s.closed.Load(); c != nil {
			return c
		}
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if s.dirty.Load() || s.closed.Load() == nil {
		classes, props := keysOfClasses(s.classes), keysOfProps(s.properties)
		c := &closures{
			classUp: closure(classes, s.superClass),
			propUp:  closure(props, s.superProp),
		}
		c.subClasses = downLists(classes, c.classUp)
		c.subProps = downLists(props, c.propUp)
		s.closed.Store(c)
		s.dirty.Store(false)
	}
	return s.closed.Load()
}

func keysOfClasses(m map[IRI]*Class) []IRI {
	out := make([]IRI, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keysOfProps(m map[IRI]*Property) []IRI {
	out := make([]IRI, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closure computes, for every node, the set of nodes reachable through the
// direct-super edge map, including the node itself (reflexive).
func closure(nodes []IRI, super map[IRI][]IRI) map[IRI]map[IRI]bool {
	up := make(map[IRI]map[IRI]bool, len(nodes))
	for _, n := range nodes {
		seen := map[IRI]bool{n: true}
		stack := []IRI{n}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, sup := range super[cur] {
				if !seen[sup] {
					seen[sup] = true
					stack = append(stack, sup)
				}
			}
		}
		up[n] = seen
	}
	return up
}

// downLists inverts up-closures over the sorted nodes into each node's
// down-closure, a sorted, clipped list. Visiting the nodes in order
// appends every list in order.
func downLists(nodes []IRI, up map[IRI]map[IRI]bool) map[IRI][]IRI {
	subs := make(map[IRI][]IRI, len(nodes))
	for _, n := range nodes {
		for u := range up[n] {
			subs[u] = append(subs[u], n)
		}
	}
	for u, l := range subs {
		subs[u] = l[:len(l):len(l)]
	}
	return subs
}

// IsSubClassOf reports whether sub ⊑ super in the class hierarchy
// (reflexive and transitive). Undeclared classes are only subsumed by
// themselves and rdfs:Resource.
func (s *Schema) IsSubClassOf(sub, super IRI) bool {
	if sub == super || super == RDFSResource {
		return true
	}
	ups, ok := s.rebuild().classUp[sub]
	return ok && ups[super]
}

// IsSubPropertyOf reports whether sub ⊑ super in the property hierarchy
// (reflexive and transitive).
func (s *Schema) IsSubPropertyOf(sub, super IRI) bool {
	if sub == super {
		return true
	}
	ups, ok := s.rebuild().propUp[sub]
	return ok && ups[super]
}

// SuperClasses returns every superclass of c including c, sorted.
func (s *Schema) SuperClasses(c IRI) []IRI {
	return sortedKeys(s.rebuild().classUp[c])
}

// SubClasses returns every subclass of c including c, sorted. The slice
// is the schema's own: read it, do not write to it.
func (s *Schema) SubClasses(c IRI) []IRI {
	return s.rebuild().subClasses[c]
}

// SuperProperties returns every superproperty of p including p, sorted.
func (s *Schema) SuperProperties(p IRI) []IRI {
	return sortedKeys(s.rebuild().propUp[p])
}

// SubProperties returns every subproperty of p including p, sorted. The
// slice is the schema's own: read it, do not write to it.
func (s *Schema) SubProperties(p IRI) []IRI {
	return s.rebuild().subProps[p]
}

func sortedKeys(m map[IRI]bool) []IRI {
	out := make([]IRI, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Freeze computes the closures so subsequent reads are safe for concurrent
// use. Mutating a frozen schema is allowed but re-dirties it.
func (s *Schema) Freeze() { _ = s.rebuild() }

// Validate checks global schema consistency: every property's end-points
// are declared, and the subproperty hierarchy respects domain/range
// subsumption (re-checked globally, since class edges added after a
// property edge can invalidate it).
func (s *Schema) Validate() error {
	var problems []string
	for name, p := range s.properties {
		if !s.HasClass(p.Domain) {
			problems = append(problems, fmt.Sprintf("property %s: undeclared domain %s", name, p.Domain))
		}
		if !isLiteralType(p.Range) && !s.HasClass(p.Range) {
			problems = append(problems, fmt.Sprintf("property %s: undeclared range %s", name, p.Range))
		}
		for _, super := range s.superProp[name] {
			sp, ok := s.properties[super]
			if !ok {
				problems = append(problems, fmt.Sprintf("property %s: undeclared superproperty %s", name, super))
				continue
			}
			if !s.IsSubClassOf(p.Domain, sp.Domain) {
				problems = append(problems, fmt.Sprintf("property %s ⊑ %s: domain %s ⋢ %s", name, super, p.Domain, sp.Domain))
			}
			if !s.isSubRange(p.Range, sp.Range) {
				problems = append(problems, fmt.Sprintf("property %s ⊑ %s: range %s ⋢ %s", name, super, p.Range, sp.Range))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("rdf: schema %s invalid:\n  %s", s.Name, strings.Join(problems, "\n  "))
	}
	return nil
}

// String renders the schema's declarations in a compact, deterministic
// form used by tests and the CLI.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", s.Name)
	for _, c := range s.Classes() {
		fmt.Fprintf(&b, "  class %s", c.Name.Local())
		if supers := s.superClass[c.Name]; len(supers) > 0 {
			names := make([]string, len(supers))
			for i, x := range supers {
				names[i] = x.Local()
			}
			sort.Strings(names)
			fmt.Fprintf(&b, " ⊑ %s", strings.Join(names, ","))
		}
		b.WriteByte('\n')
	}
	for _, p := range s.Properties() {
		fmt.Fprintf(&b, "  property %s: %s → %s", p.Name.Local(), p.Domain.Local(), p.Range.Local())
		if supers := s.superProp[p.Name]; len(supers) > 0 {
			names := make([]string, len(supers))
			for i, x := range supers {
				names[i] = x.Local()
			}
			sort.Strings(names)
			fmt.Fprintf(&b, " ⊑ %s", strings.Join(names, ","))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
