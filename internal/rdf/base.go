package rdf

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Pair is a (subject, object) resource pair related through a property —
// the unit of data SQPeer path patterns produce and channels ship.
type Pair struct {
	// X is the origin (subject) resource.
	X Term
	// Y is the target (object) resource or literal.
	Y Term
}

// Base is an in-memory RDF description base: the extensional store behind
// a peer. Terms live once in a per-base TermDict; triples are stored as
// id triples in sorted runs, each run holding its triples three times, in
// SPO, POS and OSP order. Any triple pattern with fixed terms is then a
// binary-searched contiguous range of one order, and a property's pairs
// come out sorted by (object, subject) id — which is what the batch scan
// leaf and CollectStats merge without hashing a term. The runs hold only
// uint32s, so the collector never marks them.
//
// Inserts go into the newest run while it is shorter than bufCap; a full
// buffer merges with older runs no longer than itself, so run sizes at
// least double from newest to oldest (the logarithmic method: loading n
// triples costs O(n log n), a base holds O(log n) runs). Remove deletes
// in place. Dictionary entries are never reclaimed: a term whose last
// triple was removed keeps its id, which is what keeps ids — and any
// TermDict snapshot — stable. Query batches depend on it: a serving
// peer's scans answer in base ids over a PairIDs snapshot, and those
// batches must stay valid while the base changes under them.
//
// Each base carries a dictionary stamp (Stamp) naming its dictionary's
// lineage: a sequence of terms that only ever grows, so a base id names
// one term for as long as the stamp stays the same. NewBase and Clone
// each draw a new stamp; anything that renumbers or reclaims entries (a
// future compaction) must draw one too, because a root that mirrors the
// dictionary keys its copy by the stamp.
//
// Base is safe for concurrent use.
type Base struct {
	mu   sync.RWMutex
	dict TermDict
	// runs are the sorted runs, oldest (largest) first; the newest takes
	// inserts while it holds fewer than bufCap triples.
	runs  []run
	n     int
	gen   uint64
	stamp uint64
}

// stamps is the last dictionary stamp drawn; the first base gets 1, so
// 0 never names a dictionary.
var stamps atomic.Uint64

// bufCap is the insert buffer's capacity. Inserting shifts up to bufCap
// keys (768 B) per order; 64 keeps that shift cheap while a peer base of
// a few dozen triples stays in one run.
const bufCap = 64

// key is an id triple in one of the three index orders: order k holds the
// (s, p, o) ids rotated left by k, so SPO is {s,p,o}, POS {p,o,s} and OSP
// {o,s,p}.
type key [3]uint32

// The three index orders.
const (
	spo = iota
	pos
	osp
)

// run is one sorted run: the same triple set in each of the three orders,
// each slice sorted ascending.
type run [3][]key

func rot(t key, k int) key { return key{t[k], t[(k+1)%3], t[(k+2)%3]} }

func unrot(x key, k int) key { return key{x[(3-k)%3], x[(4-k)%3], x[(5-k)%3]} }

// cmpKeys compares two keys on positions lo..hi-1.
func cmpKeys(a, b key, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// search returns the first index of sorted r whose n-prefix is not below
// x's (after, false) or is above it (after, true).
func search(r []key, x key, n int, after bool) int {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := cmpKeys(r[mid], x, 0, n)
		if c < 0 || (after && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// equalRange returns the keys of sorted r sharing x's n-prefix.
func equalRange(r []key, x key, n int) []key {
	if n == 0 {
		return r
	}
	lo := search(r, x, n, false)
	return r[lo : lo+search(r[lo:], x, n, true)]
}

// NewBase returns an empty description base with a new dictionary
// stamp.
func NewBase() *Base {
	return &Base{stamp: stamps.Add(1)}
}

// ids resolves a triple's terms without interning; ok is false when some
// term is not in the dictionary, in which case the triple is absent.
func (b *Base) ids(t Triple) (key, bool) {
	var x key
	for i, term := range [3]Term{t.S, t.P, t.O} {
		id, ok := b.dict.Lookup(term)
		if !ok {
			return key{}, false
		}
		x[i] = id
	}
	return x, true
}

// find returns the index of the run holding id triple t, or -1.
func (b *Base) find(t key) int {
	for i := range b.runs {
		r := b.runs[i][spo]
		if j := search(r, t, 3, false); j < len(r) && r[j] == t {
			return i
		}
	}
	return -1
}

// Add inserts a triple. Duplicate inserts are no-ops. Add reports whether
// the triple was newly inserted.
func (b *Base) Add(t Triple) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Interning a duplicate's terms changes nothing: they are present.
	// Conversely a triple with a newly interned term cannot be stored
	// yet, so only an all-known triple pays the per-run duplicate search.
	terms := b.dict.Len()
	x := key{b.dict.Intern(t.S), b.dict.Intern(t.P), b.dict.Intern(t.O)}
	if b.dict.Len() == terms && b.find(x) >= 0 {
		return false
	}
	if len(b.runs) == 0 || len(b.runs[len(b.runs)-1][spo]) >= bufCap {
		b.runs = append(b.runs, run{})
	}
	last := &b.runs[len(b.runs)-1]
	for k := range last {
		y := rot(x, k)
		r := last[k]
		i := search(r, y, 3, false)
		r = append(r, key{})
		copy(r[i+1:], r[i:])
		r[i] = y
		last[k] = r
	}
	if len(last[spo]) == bufCap {
		b.compact()
	}
	b.n++
	b.gen++
	return true
}

// compact merges the newest run into its predecessor while the
// predecessor is no longer than it, so run sizes at least double from
// newest to oldest.
func (b *Base) compact() {
	for n := len(b.runs); n >= 2 && len(b.runs[n-2][spo]) <= len(b.runs[n-1][spo]); n-- {
		older, newer := &b.runs[n-2], &b.runs[n-1]
		for k := range older {
			older[k] = mergeRuns(older[k], newer[k])
		}
		b.runs[n-1] = run{}
		b.runs = b.runs[:n-1]
	}
}

// mergeRuns merges two sorted, disjoint key slices into a new one.
func mergeRuns(a, c []key) []key {
	out := make([]key, 0, len(a)+len(c))
	for len(a) > 0 && len(c) > 0 {
		if cmpKeys(a[0], c[0], 0, 3) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, c = append(out, c[0]), c[1:]
		}
	}
	return append(append(out, a...), c...)
}

// AddAll inserts all triples, returning how many were new.
func (b *Base) AddAll(ts []Triple) int {
	added := 0
	for _, t := range ts {
		if b.Add(t) {
			added++
		}
	}
	return added
}

// Remove deletes a triple, reporting whether it was present.
func (b *Base) Remove(t Triple) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	x, ok := b.ids(t)
	if !ok {
		return false
	}
	i := b.find(x)
	if i < 0 {
		return false
	}
	ru := &b.runs[i]
	for k := range ru {
		r := ru[k]
		j := search(r, rot(x, k), 3, false)
		ru[k] = append(r[:j], r[j+1:]...)
	}
	if len(ru[spo]) == 0 {
		copy(b.runs[i:], b.runs[i+1:])
		b.runs[len(b.runs)-1] = run{}
		b.runs = b.runs[:len(b.runs)-1]
	}
	b.n--
	b.gen++
	return true
}

// Has reports whether the triple is present.
func (b *Base) Has(t Triple) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	x, ok := b.ids(t)
	return ok && b.find(x) >= 0
}

// Gen returns the base's mutation generation: it changes on every
// successful Add or Remove, so derived artifacts (statistics, active
// schemas) can be memoized against it.
func (b *Base) Gen() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gen
}

// Stamp returns the base's dictionary stamp: two bases with one stamp
// agree on every id both dictionaries hold. It is never 0 and never
// changes; its wire form is fixed-width, so its size does not depend on
// how many bases the process made before.
func (b *Base) Stamp() uint64 { return b.stamp }

// Len returns the number of stored triples.
func (b *Base) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.n
}

// Match returns all triples matching the pattern; zero Terms are
// wildcards. The order whose leading positions are the bound ones is
// binary-searched, so every result comes from one contiguous range per
// run.
func (b *Base) Match(s, p, o Term) []Triple {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Triple
	b.match(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// MatchFunc streams matching triples to fn; fn returning false stops the
// scan early. The base lock is held while fn runs, so fn must not call
// back into the Base's mutating methods.
func (b *Base) MatchFunc(s, p, o Term, fn func(Triple) bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.match(s, p, o, fn)
}

// Count returns the number of triples matching the pattern without
// materializing them: the summed lengths of the matching ranges.
func (b *Base) Count(s, p, o Term) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	rs, _ := b.ranges(s, p, o)
	return totalLen(rs)
}

// ranges resolves a pattern to one key range per run, all in the order
// whose leading positions are the pattern's bound ones. A bound term
// missing from the dictionary matches nothing.
func (b *Base) ranges(s, p, o Term) (rs [][]key, order int) {
	var x key
	var bound [3]bool
	nb := 0
	for i, term := range [3]Term{s, p, o} {
		if term.Zero() {
			continue
		}
		id, ok := b.dict.Lookup(term)
		if !ok {
			return nil, 0
		}
		x[i], bound[i] = id, true
		nb++
	}
	// Pick the order whose first nb positions are exactly the bound ones.
	k := 0
	switch nb {
	case 1:
		for i := range bound {
			if bound[i] {
				k = i
			}
		}
	case 2:
		for i := range bound {
			if !bound[i] {
				k = (i + 1) % 3
			}
		}
	}
	return b.appendRanges(nil, k, rot(x, k), nb), k
}

func (b *Base) match(s, p, o Term, fn func(Triple) bool) {
	terms := b.dict.terms
	rs, k := b.ranges(s, p, o)
	for _, r := range rs {
		for _, x := range r {
			t := unrot(x, k)
			if !fn(Triple{S: terms[t[0]], P: terms[t[1]], O: terms[t[2]]}) {
				return
			}
		}
	}
}

// Triples returns every stored triple.
func (b *Base) Triples() []Triple {
	return b.Match(Term{}, Term{}, Term{})
}

// appendRanges appends every run's non-empty range of order k sharing
// x's n-prefix. A nil out is allocated once, with room for a range in
// every run, on the first range found.
func (b *Base) appendRanges(out [][]key, k int, x key, n int) [][]key {
	for _, ru := range b.runs {
		if r := equalRange(ru[k], x, n); len(r) > 0 {
			if out == nil {
				out = make([][]key, 0, len(b.runs))
			}
			out = append(out, r)
		}
	}
	return out
}

// propRanges returns the POS ranges of every listed property; their keys
// sort by (object, subject) within each range.
func (b *Base) propRanges(props []IRI) [][]key {
	var out [][]key
	for _, p := range props {
		if id, ok := b.dict.Lookup(NewIRI(p)); ok {
			out = b.appendRanges(out, pos, key{id}, 1)
		}
	}
	return out
}

// typeRanges returns the POS ranges of rdf:type triples into every
// listed class; their keys sort by subject within each range.
func (b *Base) typeRanges(classes []IRI) [][]key {
	tid, ok := b.dict.Lookup(NewIRI(RDFType))
	if !ok {
		return nil
	}
	var out [][]key
	for _, c := range classes {
		if id, ok := b.dict.Lookup(NewIRI(c)); ok {
			out = b.appendRanges(out, pos, key{tid, id}, 2)
		}
	}
	return out
}

// mergeDistinct streams the distinct keys of sorted ranges to fn in
// ascending order of positions from..2. Each range must be sorted on those
// positions and distinct on them (a POS range with a fixed from-prefix
// is), so duplicates only arise across ranges, where the merge makes them
// adjacent: the union needs no seen-set.
func mergeDistinct(ranges [][]key, from int, fn func(key)) {
	if len(ranges) == 1 {
		for _, x := range ranges[0] {
			fn(x)
		}
		return
	}
	var last key
	emitted := false
	for {
		best := -1
		for i, r := range ranges {
			if len(r) > 0 && (best < 0 || cmpKeys(r[0], ranges[best][0], from, 3) < 0) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		x := ranges[best][0]
		ranges[best] = ranges[best][1:]
		if emitted && cmpKeys(x, last, from, 3) == 0 {
			continue
		}
		last, emitted = x, true
		fn(x)
	}
}

// totalLen sums the range lengths: an upper bound on a merge's output.
func totalLen(ranges [][]key) int {
	n := 0
	for _, r := range ranges {
		n += len(r)
	}
	return n
}

func subClasses(c IRI, schema *Schema) []IRI {
	if schema == nil {
		return []IRI{c}
	}
	return schema.SubClasses(c)
}

func subProperties(p IRI, schema *Schema) []IRI {
	if schema == nil {
		return []IRI{p}
	}
	return schema.SubProperties(p)
}

// InstancesOf returns the resources classified under class c or any of its
// subclasses per the schema, in ascending id order. With a nil schema
// only direct typing counts.
func (b *Base) InstancesOf(c IRI, schema *Schema) []Term {
	classes := subClasses(c, schema)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ranges := b.typeRanges(classes)
	out := make([]Term, 0, totalLen(ranges))
	mergeDistinct(ranges, 2, func(x key) { out = append(out, b.dict.terms[x[2]]) })
	return out
}

// IDSet is a set of base term ids, one bit per id. InstanceIDs never
// returns a nil set, so nil can stand for "no set".
type IDSet []uint64

func newIDSet(ids int) IDSet { return make(IDSet, (ids+63)/64) }

// Has reports whether id is in the set.
func (s IDSet) Has(id int32) bool {
	w := int(id) >> 6
	return w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

func (s IDSet) add(id uint32) { s[id>>6] |= 1 << (id & 63) }

// InstanceIDs is InstancesOf in id space: the base ids of c's instances
// (subclasses included per the schema), as a set.
func (b *Base) InstanceIDs(c IRI, schema *Schema) IDSet {
	classes := subClasses(c, schema)
	b.mu.RLock()
	defer b.mu.RUnlock()
	set := newIDSet(b.dict.Len())
	for _, r := range b.typeRanges(classes) {
		for _, x := range r {
			set.add(x[2])
		}
	}
	return set
}

// Pairs returns the (subject, object) pairs related through property p or
// any of its subproperties per the schema — the extension of a path
// pattern over this base — distinct, in ascending (object, subject) id
// order. With a nil schema only p itself is consulted.
func (b *Base) Pairs(p IRI, schema *Schema) []Pair {
	props := subProperties(p, schema)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ranges := b.propRanges(props)
	terms := b.dict.terms
	out := make([]Pair, 0, totalLen(ranges))
	mergeDistinct(ranges, 1, func(x key) { out = append(out, Pair{X: terms[x[2]], Y: terms[x[1]]}) })
	return out
}

// PairIDs is Pairs in id space, for the batch scan leaf: the base ids of
// each distinct pair's subject (xs) and object (ys), in Pairs' order,
// with the base's term table (a TermDict snapshot, which the ids index,
// and which stays valid and unchanged while the base changes). The
// columns are int32 to match the batch plane's id columns.
func (b *Base) PairIDs(p IRI, schema *Schema) (xs, ys []int32, terms []Term) {
	props := subProperties(p, schema)
	b.mu.RLock()
	defer b.mu.RUnlock()
	ranges := b.propRanges(props)
	n := totalLen(ranges)
	xs, ys = make([]int32, 0, n), make([]int32, 0, n)
	mergeDistinct(ranges, 1, func(x key) {
		xs = append(xs, int32(x[2]))
		ys = append(ys, int32(x[1]))
	})
	return xs, ys, b.dict.Terms()
}

// PropertiesUsed returns the set of distinct predicate IRIs appearing in
// the base, excluding rdf:type, sorted; this is what active-schema
// derivation inspects in the materialized scenario.
func (b *Base) PropertiesUsed() []IRI {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []IRI
	seen := newIDSet(b.dict.Len())
	for _, ru := range b.runs {
		r := ru[pos]
		// Skip from one property's range to the next.
		for i := 0; i < len(r); i += search(r[i:], r[i], 1, true) {
			id := r[i][0]
			if seen.Has(int32(id)) {
				continue
			}
			seen.add(id)
			if t := b.dict.terms[id]; t.IsIRI() && t.IRI() != RDFType {
				out = append(out, t.IRI())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClassesUsed returns the distinct class IRIs appearing as objects of
// rdf:type triples, sorted.
func (b *Base) ClassesUsed() []IRI {
	b.mu.RLock()
	defer b.mu.RUnlock()
	tid, ok := b.dict.Lookup(NewIRI(RDFType))
	if !ok {
		return nil
	}
	var out []IRI
	seen := newIDSet(b.dict.Len())
	for _, ru := range b.runs {
		r := equalRange(ru[pos], key{tid}, 1)
		for i := 0; i < len(r); i += search(r[i:], r[i], 2, true) {
			id := r[i][1]
			if seen.Has(int32(id)) {
				continue
			}
			seen.add(id)
			if t := b.dict.terms[id]; t.IsIRI() {
				out = append(out, t.IRI())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the base under a new dictionary stamp:
// the copy's dictionary grows apart from the original's.
func (b *Base) Clone() *Base {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := &Base{dict: b.dict.clone(), runs: make([]run, len(b.runs)), n: b.n, gen: b.gen, stamp: stamps.Add(1)}
	for i, ru := range b.runs {
		for k := range ru {
			c.runs[i][k] = append([]key(nil), ru[k]...)
		}
	}
	return c
}
