package rql

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"sqpeer/internal/rdf"
)

// Batch is the columnar twin of ResultSet: the same logical relation —
// rows over a fixed variable schema — stored as one dictionary-encoded
// id column per variable. Terms repeat heavily in SQPeer workloads (join
// resources appear once per matching pair, IRIs share long namespace
// prefixes), so each batch carries a term dictionary (its own, or a
// snapshot of the base's or store's term sequence its ids index) and the
// columns hold int32 dictionary ids; unbound variables are encoded as -1.
// Batches are what the executor's data plane moves and operates on;
// ResultSet remains the public facade, with BatchOf / Batch.ResultSet
// converting at the boundary.
//
// Facade contract: a Row binding for a variable outside the set's Vars
// is not representable columnar-wise and is dropped by BatchOf. Nothing
// in the engine produces such rows (every operator binds only schema
// variables), which is what makes the two representations equivalent.
type Batch struct {
	// Vars is the variable schema, in presentation order.
	Vars []string
	// Cols holds one id column per variable, aligned with Vars; each
	// column has Len() entries and entry -1 means "unbound in this row".
	Cols [][]int32
	// Dict maps dictionary ids to terms.
	Dict []rdf.Term

	// rows is the row count, kept explicitly so zero-variable relations
	// (a projection onto no variables) keep their cardinality.
	rows int
	// space identifies the append-only term sequence this batch's ids
	// index: a *TermStore, or the *rdf.Base whose dictionary a scan
	// answered in. Dict is then a prefix snapshot of that sequence, and
	// two batches on one space agree on every id. nil marks a batch whose
	// Dict is its own — a decoded wire frame, or one cut by a Slicer.
	// Every batch an operator combines indexes one sequence, so operators
	// read ids as they are; aligned rebases copies of inputs that
	// disagree.
	space any
}

// TermStore is a grow-only term dictionary, the id space a root moves
// remote answers in. Each engine keeps one for its lifetime, beside its
// per-site dictionary mirrors: the collector translates a mirror frame's
// base ids into the store through the mirror's table, and rebases a
// self-contained frame onto it, so the frames of every site and every
// query agree on ids and the operators above them never look a term up.
// A term a frame brings is interned once per store, with its strings
// cloned so the store never pins the message it came in. Local scans
// need no store: they answer in their base's ids, which are just as
// append-only. BatchOf interns into a fresh store. Batches carry
// capacity-capped snapshots of the term sequence as their Dict, so ids
// are stable and snapshots stay immutable while the store grows.
//
// The dictionary itself is an rdf.TermDict, the probe-table dictionary
// every rdf.Base also keeps. The mutex makes interning safe across the
// collectors and branch goroutines that share the store; reads of a
// snapshot need no lock because the store only ever appends past every
// existing snapshot's length.
type TermStore struct {
	mu   sync.Mutex
	dict rdf.TermDict
}

// NewTermStore returns an empty shared dictionary.
func NewTermStore() *TermStore {
	return &TermStore{}
}

// intern returns t's id, adding it on first use. Caller holds mu.
func (s *TermStore) intern(t rdf.Term) int32 {
	return int32(s.dict.Intern(t))
}

// internMarked interns terms[i] for every i with m[i] != 0, setting
// m[i] to its id + 1. The terms' strings may alias a decoded frame's
// buffer, so the new ones are stored with their strings copied, all into
// one allocation: the store pins no frame (nor a base's term table), and
// a frame's new terms cost one allocation together. Caller holds mu.
func (s *TermStore) internMarked(terms []rdf.Term, m []int32) {
	n := 0
	for i, t := range terms {
		if m[i] == 0 {
			continue
		}
		if id, ok := s.dict.Lookup(t); ok {
			m[i] = int32(id) + 1
		} else {
			m[i] = -1
			n += len(t.Value) + len(t.Datatype)
		}
	}
	if n == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, t := range terms {
		if m[i] < 0 {
			sb.WriteString(t.Value)
			sb.WriteString(string(t.Datatype))
		}
	}
	buf := sb.String()
	for i, t := range terms {
		if m[i] >= 0 {
			continue
		}
		t.Value, buf = buf[:len(t.Value)], buf[len(t.Value):]
		if t.Datatype != "" {
			t.Datatype, buf = rdf.IRI(buf[:len(t.Datatype)]), buf[len(t.Datatype):]
		}
		m[i] = s.intern(t) + 1
	}
}

// snapshot returns the current term sequence, capacity-capped so later
// store appends reallocate instead of scribbling past it. Caller holds mu.
func (s *TermStore) snapshot() []rdf.Term {
	return s.dict.Terms()
}

// Term returns the term with store id id.
func (s *TermStore) Term(id int32) rdf.Term {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot()[id]
}

// Len returns the number of terms in the store.
func (s *TermStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dict.Len()
}

// Intern appends the store id of each term to ids and returns the
// extended slice, interning new terms as a decoded frame's are: with
// their strings cloned.
func (s *TermStore) Intern(ids []int32, terms []rdf.Term) []int32 {
	m := make([]int32, len(terms))
	for i := range m {
		m[i] = 1
	}
	s.mu.Lock()
	s.internMarked(terms, m)
	s.mu.Unlock()
	for _, id := range m {
		ids = append(ids, id-1)
	}
	return ids
}

// Translate rewrites b's ids in place through table, which maps each id
// b holds to its id in s, and makes b store-backed. It is how a root
// reads a mirror frame: DecodeMirror leaves the frame's base ids, and the
// root's mirror of that base maps them into its store by lookup, without
// touching a term. Returns b for chaining.
func (b *Batch) Translate(s *TermStore, table []int32) *Batch {
	for _, col := range b.Cols {
		for r, id := range col {
			if id >= 0 {
				col[r] = table[id]
			}
		}
	}
	s.mu.Lock()
	b.Dict = s.snapshot()
	s.mu.Unlock()
	b.space = s
	return b
}

// Base returns the base whose dictionary b's ids index, or nil when they
// index a store or b's own dictionary. A serving peer sends a batch on
// its base in mirror frames.
func (b *Batch) Base() *rdf.Base {
	base, _ := b.space.(*rdf.Base)
	return base
}

// Rebase rewrites b in place into s's id space, making it store-backed.
// The collector calls this on every self-contained frame (a mirror frame
// is translated instead): only the terms b's rows reference are interned,
// in dictionary order, a new one with its strings copied. A batch of base
// ids carries its base's whole dictionary, of which a scan uses a few
// entries. Returns b for chaining.
func (b *Batch) Rebase(s *TermStore) *Batch {
	if b == nil || b.space == s {
		return b
	}
	b.Dict = b.rebaseInto(s, b.Cols)
	b.space = s
	return b
}

// rebaseInto writes b's rows, translated into s's ids, into dst (which
// may be b.Cols itself) and returns the store snapshot covering them.
func (b *Batch) rebaseInto(s *TermStore, dst [][]int32) []rdf.Term {
	src := b.compacted()
	// m[id] is id's store id + 1; 0 for an id no row references.
	m := make([]int32, len(src.Dict))
	for _, col := range src.Cols {
		for _, id := range col {
			if id >= 0 {
				m[id] = 1
			}
		}
	}
	s.mu.Lock()
	s.internMarked(src.Dict, m)
	snap := s.snapshot()
	s.mu.Unlock()
	for c, col := range src.Cols {
		out := dst[c]
		for r, id := range col {
			if id >= 0 {
				id = m[id] - 1
			}
			out[r] = id
		}
	}
	return snap
}

// sameSpace reports whether the batches' ids all index one term
// sequence. Nil batches and batches with an empty dictionary hold no ids
// and agree with anything; a batch with its own dictionary agrees only
// when it is the one batch holding ids.
func sameSpace(batches []*Batch) bool {
	var first *Batch
	for _, b := range batches {
		if b == nil || len(b.Dict) == 0 {
			continue
		}
		if first == nil {
			first = b
		} else if b.space == nil || b.space != first.space {
			return false
		}
	}
	return true
}

// aligned returns the batches on one term sequence: the inputs
// themselves when they already share one, else copies of them rebased
// onto the first store among them, or onto a fresh store when none has
// one. An input is never rewritten: the executor's dispatch memo hands
// one batch to several branches.
func aligned(batches []*Batch) []*Batch {
	if sameSpace(batches) {
		return batches
	}
	var s *TermStore
	for _, b := range batches {
		if b == nil {
			continue
		}
		if bs, ok := b.space.(*TermStore); ok {
			s = bs
			break
		}
	}
	if s == nil {
		s = NewTermStore()
	}
	out := make([]*Batch, len(batches))
	for i, b := range batches {
		if b == nil || b.space == s {
			out[i] = b
			continue
		}
		c := &Batch{Vars: b.Vars, Cols: make([][]int32, len(b.Cols)), rows: b.rows, space: s}
		cells := make([]int32, len(b.Cols)*b.rows)
		for j := range c.Cols {
			c.Cols[j] = cells[j*b.rows : (j+1)*b.rows : (j+1)*b.rows]
		}
		c.Dict = b.rebaseInto(s, c.Cols)
		out[i] = c
	}
	return out
}

// NewBatch returns an empty batch over the variables.
func NewBatch(vars ...string) *Batch {
	return &Batch{Vars: vars, Cols: make([][]int32, len(vars))}
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return b.rows
}

// appendIDs appends one row of dictionary ids (already in this batch's
// dictionary space, aligned with Vars).
func (b *Batch) appendIDs(ids []int32) {
	for i := range b.Cols {
		b.Cols[i] = append(b.Cols[i], ids[i])
	}
	b.rows++
}

// BatchOf converts a result set into its columnar form, interning its
// terms into a fresh store in order of first appearance.
func BatchOf(rs *ResultSet) *Batch {
	if rs == nil {
		return NewBatch()
	}
	b := NewBatch(rs.Vars...)
	for i := range b.Cols {
		b.Cols[i] = make([]int32, 0, len(rs.Rows))
	}
	s := NewTermStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs.Rows {
		for i, v := range b.Vars {
			id := int32(-1)
			if t, ok := r[v]; ok {
				id = s.intern(t)
			}
			b.Cols[i] = append(b.Cols[i], id)
		}
		b.rows++
	}
	b.space, b.Dict = s, s.snapshot()
	return b
}

// ResultSet converts the batch back into the row-map facade form.
func (b *Batch) ResultSet() *ResultSet {
	if b == nil {
		return NewResultSet()
	}
	rs := NewResultSet(b.Vars...)
	rs.Rows = make([]Row, 0, b.rows)
	for r := 0; r < b.rows; r++ {
		row := make(Row, len(b.Vars))
		for c, v := range b.Vars {
			if id := b.Cols[c][r]; id >= 0 {
				row[v] = b.Dict[id]
			}
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs
}

// hashIDs folds an id tuple into a 64-bit hash, two ids per
// multiply-fold step: each word is mixed into the state by a 64×64→128
// multiply whose halves are XORed, so every bit of the result (the
// tables index by the low ones) depends on every input bit. The unbound
// sentinel (-1) is just another 32-bit pattern. The hash never leaves
// the process; the tables verify tuple equality against the columns on
// every hit, so a collision costs a comparison, never a wrong answer.
func hashIDs(ids []int32) uint64 {
	h := uint64(len(ids))
	for len(ids) >= 2 {
		h = mix(h ^ (uint64(uint32(ids[0])) | uint64(uint32(ids[1]))<<32))
		ids = ids[2:]
	}
	if len(ids) == 1 {
		h = mix(h ^ uint64(uint32(ids[0])))
	}
	return mix(h)
}

// mix is one multiply-fold round, with the odd constants of the golden
// ratio and of splitmix64.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9)
	return hi ^ lo
}

// table is the open-addressed index behind the operators' dedup sets and
// join indexes: a power-of-two array of slots, each 0 (empty) or a row
// number + 1, probed linearly from the hash's low bits. It stores no
// keys: a caller compares a candidate with the row a slot names in its
// own columns. It is at most half full, so every probe ends at an empty
// slot within a few steps; operators size it for their input, and it
// doubles (rehashing every row) only when an operator's output outruns
// that, as a join's matches can outnumber its probe rows.
type table struct {
	slots []int32
	n     int
}

// newTable returns a table that holds hint rows without growing.
func newTable(hint int) table {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	return table{slots: make([]int32, size)}
}

// find probes from hash h's slot for a row eq accepts. It returns that
// row's slot and the row, or the empty slot that ends the probe and -1.
func (t *table) find(h uint64, eq func(row int32) bool) (int, int32) {
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if eq(s - 1) {
			return i, s - 1
		}
	}
}

// put stores row in empty slot i and reports whether the table is now
// more than half full and must grow.
func (t *table) put(i int, row int32) bool {
	t.slots[i] = row + 1
	t.n++
	return 2*t.n > len(t.slots)
}

// grow doubles the table, re-placing every row by its hash.
func (t *table) grow(hash func(row int32) uint64) {
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	for _, s := range old {
		if s != 0 {
			i, _ := t.find(hash(s-1), noRow)
			t.slots[i] = s
		}
	}
}

// noRow accepts no row: a probe with it ends at an empty slot.
func noRow(int32) bool { return false }

// dedup admits unique id tuples into out, appending each new row; its
// table indexes out's rows.
type dedup struct {
	out *Batch
	t   table
	// row is scratch for rehashing out's rows when the table grows.
	row []int32
}

func newDedup(out *Batch, hint int) *dedup {
	return &dedup{out: out, t: newTable(hint), row: make([]int32, len(out.Cols))}
}

// sameRow reports whether admitted out-row r equals the candidate tuple.
func (d *dedup) sameRow(r int32, ids []int32) bool {
	for c, col := range d.out.Cols {
		if col[r] != ids[c] {
			return false
		}
	}
	return true
}

// admit appends ids to out unless an equal tuple was admitted before.
func (d *dedup) admit(ids []int32) {
	i, r := d.t.find(hashIDs(ids), func(r int32) bool { return d.sameRow(r, ids) })
	if r >= 0 {
		return
	}
	d.out.appendIDs(ids)
	if d.t.put(i, int32(d.out.rows-1)) {
		d.t.grow(d.rowHash)
	}
}

// rowHash is the hash of admitted out-row r.
func (d *dedup) rowHash(r int32) uint64 {
	for c, col := range d.out.Cols {
		d.row[c] = col[r]
	}
	return hashIDs(d.row)
}

// adoptDict shares src's dictionary and space with b, making src's ids
// valid b ids. Operators adopt the input with the largest dictionary:
// their inputs index one term sequence, so its snapshot covers every
// input's ids. The shared slice is capacity-capped, so nothing b does
// writes to src's backing array.
func (b *Batch) adoptDict(src *Batch) {
	if src == nil {
		return
	}
	b.space = src.space
	b.Dict = src.Dict[:len(src.Dict):len(src.Dict)]
}

// adoptee picks the input with the largest dictionary, the snapshot that
// covers every input's ids.
func adoptee(batches []*Batch) *Batch {
	var best *Batch
	for _, src := range batches {
		if src != nil && (best == nil || len(src.Dict) > len(best.Dict)) {
			best = src
		}
	}
	return best
}

// columnsOf maps each requested variable to its column index in b, -1
// when b's schema lacks it (the last column when b names it twice).
// Schemas hold a handful of variables, so a scan beats building a map.
func columnsOf(b *Batch, vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = -1
		for c := len(b.Vars) - 1; c >= 0; c-- {
			if b.Vars[c] == v {
				out[i] = c
				break
			}
		}
	}
	return out
}

// distinctNames reports whether vars names no variable twice.
func distinctNames(vars []string) bool {
	for i, v := range vars {
		if slices.Contains(vars[:i], v) {
			return false
		}
	}
	return true
}

// cell is row r's id in column c of b, unbound when c is -1 (b lacks the
// variable).
func (b *Batch) cell(c, r int) int32 {
	if c < 0 {
		return -1
	}
	return b.Cols[c][r]
}

// Union merges another batch into this one, deduplicating over the union
// of the variable schemas — the vectorized ResultSet.Union: same merged
// schema, same first-occurrence-wins order, keyed on dictionary ids
// instead of rendered strings.
func (b *Batch) Union(o *Batch) *Batch {
	return UnionAll(b, o)
}

// UnionAll unions any number of batches in one pass: one merged schema,
// one dedup set, first occurrence wins across all inputs in order. The
// executor's n-way plan unions call this instead of folding pairwise,
// which would re-key the whole accumulated relation once per branch.
func UnionAll(batches ...*Batch) *Batch {
	batches = aligned(batches)
	var vars []string
	total := 0
	for _, src := range batches {
		if src == nil {
			continue
		}
		vars = mergeVars(vars, src.Vars)
		total += src.Len()
	}
	out := NewBatch(vars...)
	out.adoptDict(adoptee(batches))
	for i := range out.Cols {
		out.Cols[i] = make([]int32, 0, total)
	}
	d := newDedup(out, total)
	ids := make([]int32, len(vars))
	for _, src := range batches {
		if src == nil {
			continue
		}
		cols := columnsOf(src, vars)
		for r := 0; r < src.rows; r++ {
			for i, c := range cols {
				ids[i] = src.cell(c, r)
			}
			d.admit(ids)
		}
	}
	return out
}

// Join natural-joins two batches on their shared variables — the
// vectorized ResultSet.Join: hash-build on the smaller side, probe with
// the larger, build-side bindings win in the merged row, output
// deduplicated. Keys are dictionary-id sequences built in a reused
// scratch buffer; two unbound values key equal (as the rendered zero
// term does in the row path), an unbound never matches a bound one.
func (b *Batch) Join(o *Batch) *Batch {
	shared := sharedVars(b.Vars, o.Vars)
	vars := mergeVars(b.Vars, o.Vars)
	out := NewBatch(vars...)
	if b.Len() == 0 || o.Len() == 0 {
		return out
	}
	in := aligned([]*Batch{b, o})
	build, probe := in[0], in[1]
	if probe.Len() < build.Len() {
		build, probe = probe, build
	}
	out.adoptDict(adoptee(in))
	for i := range out.Cols {
		out.Cols[i] = make([]int32, 0, probe.Len())
	}
	buildShared := columnsOf(build, shared)
	probeShared := columnsOf(probe, shared)
	// The index holds the first build row of each distinct key (the
	// build side's shared-variable ids) and next chains the later rows
	// with that key (-1 ends a chain). Filled from the last row back, the
	// chains run in build-row order, the order the row-at-a-time join
	// emits matches in. Keys are compared against the columns, so the
	// index stores no key.
	idx := newTable(build.rows)
	next := make([]int32, build.rows)
	keyIDs := make([]int32, len(shared))
	sameKey := func(r int32) bool { return buildKeyEqual(build, buildShared, r, keyIDs) }
	for r := build.rows - 1; r >= 0; r-- {
		for i, c := range buildShared {
			keyIDs[i] = build.cell(c, r)
		}
		i, head := idx.find(hashIDs(keyIDs), sameKey)
		next[r] = head
		if head >= 0 {
			idx.slots[i] = int32(r) + 1 // r now heads its key's chain
		} else {
			idx.put(i, int32(r)) // never fills: at most build.rows keys
		}
	}
	buildCols := columnsOf(build, vars)
	probeCols := columnsOf(probe, vars)
	d := newDedup(out, probe.Len())
	ids := make([]int32, len(vars))
	for r := 0; r < probe.rows; r++ {
		for i, c := range probeShared {
			keyIDs[i] = probe.cell(c, r)
		}
		_, br := idx.find(hashIDs(keyIDs), sameKey)
		for ; br >= 0; br = next[br] {
			for i := range vars {
				id := build.cell(buildCols[i], int(br))
				if id < 0 {
					id = probe.cell(probeCols[i], r)
				}
				ids[i] = id
			}
			d.admit(ids)
		}
	}
	return out
}

// buildKeyEqual reports whether build row r's shared-variable ids equal
// the probe key — the collision guard behind the hash index.
func buildKeyEqual(build *Batch, sharedCols []int, r int32, want []int32) bool {
	for i, c := range sharedCols {
		if build.cell(c, int(r)) != want[i] {
			return false
		}
	}
	return true
}

// Project restricts rows to the given variables, deduplicating — the
// vectorized ResultSet.Project.
func (b *Batch) Project(vars []string) *Batch {
	out := NewBatch(vars...)
	out.adoptDict(b)
	cols := columnsOf(b, vars)
	for i := range out.Cols {
		out.Cols[i] = make([]int32, 0, b.Len())
	}
	d := newDedup(out, b.Len())
	ids := make([]int32, len(vars))
	for r := 0; r < b.rows; r++ {
		for i, c := range cols {
			ids[i] = b.cell(c, r)
		}
		d.admit(ids)
	}
	return out
}

// Limit returns the first n rows (0 means no limit) — the columnar
// ResultSet.Limit. The result shares b's columns and dictionary.
func (b *Batch) Limit(n int) *Batch {
	if n <= 0 || b.Len() <= n {
		return b
	}
	out := &Batch{Vars: b.Vars, Cols: make([][]int32, len(b.Cols)), rows: n}
	out.adoptDict(b)
	for i, col := range b.Cols {
		out.Cols[i] = col[:n:n]
	}
	return out
}

// Concat appends batches in order over the merged schema WITHOUT
// deduplicating. It is the collector's reassembly of one result stream:
// the destination streams disjoint slices of an already-deduplicated
// relation, so concatenation reproduces exactly what a per-segment Union
// would — minus the quadratic re-scan of everything already received.
// Concat of one batch over a schema naming each variable once is that
// batch itself: a collector that received one frame returns it.
func Concat(batches ...*Batch) *Batch {
	if len(batches) == 1 && batches[0] != nil && distinctNames(batches[0].Vars) {
		return batches[0]
	}
	batches = aligned(batches)
	var vars []string
	total := 0
	for _, b := range batches {
		if b == nil {
			continue
		}
		vars = mergeVars(vars, b.Vars)
		total += b.Len()
	}
	out := NewBatch(vars...)
	out.adoptDict(adoptee(batches))
	for i := range out.Cols {
		out.Cols[i] = make([]int32, 0, total)
	}
	for _, b := range batches {
		if b == nil {
			continue
		}
		for i, c := range columnsOf(b, vars) {
			for r := 0; r < b.rows; r++ {
				out.Cols[i] = append(out.Cols[i], b.cell(c, r))
			}
		}
		out.rows += b.rows
	}
	return out
}

// Slicer cuts successive wire frames from one source batch. It keeps a
// remap table sized by the source's dictionary across Slice calls,
// resetting only the entries of the ids the previous frame's cells hold
// — without it a framing loop allocates and zeroes |Dict| ints per
// frame, which dominates sender-side allocation on large results. The
// source may be a batch of base ids whose Dict is its base's whole
// dictionary, or a batch on an engine's term store: frame ids are
// assigned in order of first appearance, so the frame is the same
// whatever id space the source uses, and a source whose dictionary is
// far larger than its cells is compacted first (compacted).
type Slicer struct {
	src *Batch
	// remap[id] is the current frame's local id for source id, -1 while
	// unassigned.
	remap []int32
}

// compactFactor is how many times its cells a batch's dictionary may
// hold before a pass that keeps a table indexed by the batch's ids
// (NewSlicer, Rebase) compacts the batch first.
const compactFactor = 4

// compacted returns b when its dictionary holds at most compactFactor
// times its cells, and otherwise a copy whose dictionary holds only the
// terms b's rows reference, in b's dictionary order, with the ids
// renumbered to match. A batch on an engine's term store or on a large
// base carries that whole sequence as its Dict; compacting it sizes the
// table by what the batch references. The copy's frames are b's: a frame
// numbers its terms in order of first appearance whatever ids its source
// uses.
func (b *Batch) compacted() *Batch {
	cells := 0
	for _, col := range b.Cols {
		cells += len(col)
	}
	if len(b.Dict) <= compactFactor*cells {
		return b
	}
	ids := make([]int32, 0, cells)
	for _, col := range b.Cols {
		for _, id := range col {
			if id >= 0 {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := NewBatch(b.Vars...)
	out.Dict = make([]rdf.Term, len(ids))
	for i, id := range ids {
		out.Dict[i] = b.Dict[id]
	}
	flat := make([]int32, 0, cells)
	for c, col := range b.Cols {
		start := len(flat)
		for _, id := range col {
			if id >= 0 {
				i, _ := slices.BinarySearch(ids, id)
				id = int32(i)
			}
			flat = append(flat, id)
		}
		out.Cols[c] = flat[start:len(flat):len(flat)]
	}
	out.rows = b.rows
	return out
}

// NewSlicer returns a Slicer over b, compacted first when its dictionary
// is far larger than its cells.
func NewSlicer(b *Batch) *Slicer {
	b = b.compacted()
	remap := make([]int32, len(b.Dict))
	for i := range remap {
		remap[i] = -1
	}
	return &Slicer{src: b, remap: remap}
}

// Slice returns rows [start, end) of the source, re-dictionaried to only
// the terms the frame uses. The returned batch is independent of the
// Slicer and of later Slice calls.
func (s *Slicer) Slice(start, end int) *Batch {
	b := s.src
	out := NewBatch(b.Vars...)
	if start < 0 {
		start = 0
	}
	if end > b.rows {
		end = b.rows
	}
	if start >= end {
		return out
	}
	// Size the frame once: its columns share one backing array, and its
	// dictionary holds at most one entry per cell.
	rows := end - start
	cells := make([]int32, rows*len(b.Cols))
	out.Dict = make([]rdf.Term, 0, min(len(b.Dict), len(cells)))
	for c := range b.Cols {
		col := cells[c*rows : (c+1)*rows : (c+1)*rows]
		for i, id := range b.Cols[c][start:end] {
			if id < 0 {
				col[i] = -1
				continue
			}
			nid := s.remap[id]
			if nid < 0 {
				nid = int32(len(out.Dict))
				out.Dict = append(out.Dict, b.Dict[id])
				s.remap[id] = nid
			}
			col[i] = nid
		}
		out.Cols[c] = col
	}
	// Reset the entries this frame assigned for the next one.
	for c := range b.Cols {
		for _, id := range b.Cols[c][start:end] {
			if id >= 0 {
				s.remap[id] = -1
			}
		}
	}
	out.rows = rows
	return out
}
