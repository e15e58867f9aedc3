package rdf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// BaseStats summarizes a description base's extension: per-property pair
// counts and per-class instance counts. The optimizer's cost model uses
// these as cardinality estimates, and peers piggyback them on channel
// statistics packets.
type BaseStats struct {
	// Triples is the total number of stored triples.
	Triples int
	// PropertyCard maps each property to the number of (subject, object)
	// pairs it relates, including pairs contributed by subproperties.
	PropertyCard map[IRI]int
	// ClassCard maps each class to its number of instances, including
	// instances of subclasses.
	ClassCard map[IRI]int
	// DistinctSubjects maps each property to its number of distinct
	// subjects, enabling join-selectivity estimates.
	DistinctSubjects map[IRI]int
	// DistinctObjects maps each property to its number of distinct
	// objects.
	DistinctObjects map[IRI]int
}

// CollectStats computes BaseStats for the base against the schema. The
// schema supplies the subsumption hierarchies; it may be nil, in which
// case only directly asserted properties and classes are counted.
//
// Every count is read off the base's sorted runs in id space: a
// property's pair cardinality is the size of the merged union of its
// subproperties' POS ranges, its distinct objects are counted where the
// merged object changes, its distinct subjects through a stamped id
// array, and a class's cardinality is the size of the merged union of
// its subclasses' rdf:type ranges. No pair, instance or term set is
// built.
func CollectStats(b *Base, schema *Schema) *BaseStats {
	props := b.PropertiesUsed()
	classes := b.ClassesUsed()
	if schema != nil {
		// Count every schema property and class so subsumption-contributed
		// cardinalities appear even when the superproperty or superclass
		// itself has no direct triples.
		ps, cs := schema.Properties(), schema.Classes()
		props, classes = slices.Grow(props, len(ps)), slices.Grow(classes, len(cs))
		for _, p := range ps {
			props = append(props, p.Name)
		}
		for _, c := range cs {
			classes = append(classes, c.Name)
		}
	}
	// Resolve the hierarchies before taking the base lock: the schema has
	// its own.
	propSubs := hierarchies(props, schema, subProperties)
	classSubs := hierarchies(classes, schema, subClasses)

	b.mu.RLock()
	defer b.mu.RUnlock()
	st := &BaseStats{
		Triples:          b.n,
		PropertyCard:     map[IRI]int{},
		ClassCard:        map[IRI]int{},
		DistinctSubjects: map[IRI]int{},
		DistinctObjects:  map[IRI]int{},
	}
	// mark[id] == stamp marks subject id as seen for the current property.
	mark := make([]uint32, b.dict.Len())
	stamp := uint32(0)
	for _, pc := range propSubs {
		stamp++
		pairs, objs, subs := 0, 0, 0
		var lastObj uint32
		mergeDistinct(b.propRanges(pc.members), 1, func(x key) {
			if pairs == 0 || x[1] != lastObj {
				objs++
				lastObj = x[1]
			}
			pairs++
			if mark[x[2]] != stamp {
				mark[x[2]] = stamp
				subs++
			}
		})
		if pairs > 0 {
			st.PropertyCard[pc.name] = pairs
			st.DistinctSubjects[pc.name] = subs
			st.DistinctObjects[pc.name] = objs
		}
	}
	for _, cc := range classSubs {
		n := 0
		mergeDistinct(b.typeRanges(cc.members), 2, func(key) { n++ })
		if n > 0 {
			st.ClassCard[cc.name] = n
		}
	}
	return st
}

// hierarchy is a property or class with its subsumption closure.
type hierarchy struct {
	name    IRI
	members []IRI
}

// hierarchies resolves each distinct name's closure, in sorted order,
// sorting names in place. The closures are the schema's own lists, so
// the result is the one allocation.
func hierarchies(names []IRI, schema *Schema, sub func(IRI, *Schema) []IRI) []hierarchy {
	slices.Sort(names)
	names = slices.Compact(names)
	out := make([]hierarchy, len(names))
	for i, n := range names {
		out[i] = hierarchy{n, sub(n, schema)}
	}
	return out
}

// Card returns the pair cardinality recorded for property p, or 0.
func (st *BaseStats) Card(p IRI) int {
	if st == nil {
		return 0
	}
	return st.PropertyCard[p]
}

// JoinSelectivity estimates the fraction of the cross product surviving a
// join between the objects of p1 and the subjects of p2, using the
// containment-of-values assumption standard in System-R style estimators.
func (st *BaseStats) JoinSelectivity(p1, p2 IRI) float64 {
	if st == nil {
		return 0.1
	}
	d1, d2 := st.DistinctObjects[p1], st.DistinctSubjects[p2]
	m := d1
	if d2 > m {
		m = d2
	}
	if m == 0 {
		return 0.1
	}
	return 1.0 / float64(m)
}

// String renders the stats deterministically for logs and tests.
func (st *BaseStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "triples=%d\n", st.Triples)
	for _, p := range sortedStatKeys(st.PropertyCard) {
		fmt.Fprintf(&b, "property %s: pairs=%d subjects=%d objects=%d\n",
			p.Local(), st.PropertyCard[p], st.DistinctSubjects[p], st.DistinctObjects[p])
	}
	for _, c := range sortedStatKeys(st.ClassCard) {
		fmt.Fprintf(&b, "class %s: instances=%d\n", c.Local(), st.ClassCard[c])
	}
	return b.String()
}

func sortedStatKeys(m map[IRI]int) []IRI {
	out := make([]IRI, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
