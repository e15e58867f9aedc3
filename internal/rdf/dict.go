package rdf

import "hash/maphash"

// TermDict is a grow-only term dictionary: each distinct term gets a
// dense uint32 id in first-insertion order, ids never change, and no
// entry is ever reclaimed. It is the one dictionary implementation of the
// data plane: every Base keeps one for its triples, and the executor's
// shared rql.TermStore wraps one behind a mutex. Batches hold Terms
// snapshots of either and index them by id long after the dictionary has
// grown, so making entries reclaimable would have to invalidate them.
//
// The inverse index is a linear-probing table of id+1 slots (0 empty)
// rather than a Go map: each term's hash is computed once at insertion
// and memoized in hashes, so growing the table re-buckets by stored hash
// without touching a term, and both table arrays are pointer-free. A
// Term-keyed map spends more time re-hashing terms during growth (and
// being scanned by the collector) than interning them.
//
// The zero TermDict is empty and ready to use. TermDict is not safe for
// concurrent mutation; its owner serializes Intern calls.
type TermDict struct {
	terms []Term
	// hashes[id] is the memoized termHash of terms[id].
	hashes []uint64
	// slots is the power-of-two probe table holding id+1, nil until the
	// first Intern. Its probe mask is len(slots)-1, recomputed per probe
	// rather than stored: the dictionary sits in every Base, whose size
	// class this keeps.
	slots []uint32
}

// hashSeed keys termHash. maphash seeds are random per process, so probe
// positions differ between runs; ids do not — they are assigned in
// insertion order — and nothing observable depends on a probe position.
var hashSeed = maphash.MakeSeed()

// termHash hashes the term's discriminant and text with the runtime's
// string hash; a byte-at-a-time FNV loop was the largest single cost in
// profiles of bulk loads.
func termHash(t Term) uint64 {
	h := maphash.String(hashSeed, t.Value) ^ uint64(t.Kind)*0x9e3779b97f4a7c15
	if t.Datatype != "" {
		h ^= maphash.String(hashSeed, string(t.Datatype)) * 0xff51afd7ed558ccd
	}
	return h
}

// find returns t's id, or the empty slot where it would go.
func (d *TermDict) find(t Term, h uint64) (id uint32, slot uint64, ok bool) {
	mask := uint64(len(d.slots) - 1)
	i := h & mask
	for {
		s := d.slots[i]
		if s == 0 {
			return 0, i, false
		}
		if id := s - 1; d.hashes[id] == h && d.terms[id] == t {
			return id, i, true
		}
		i = (i + 1) & mask
	}
}

// Lookup returns t's id if t was interned.
func (d *TermDict) Lookup(t Term) (uint32, bool) {
	if d.slots == nil {
		return 0, false
	}
	id, _, ok := d.find(t, termHash(t))
	return id, ok
}

// Intern returns t's id, adding t on first use.
func (d *TermDict) Intern(t Term) uint32 {
	if d.slots == nil {
		d.slots = make([]uint32, 8)
	}
	h := termHash(t)
	id, slot, ok := d.find(t, h)
	if ok {
		return id
	}
	id = uint32(len(d.terms))
	d.terms = append(d.terms, t)
	d.hashes = append(d.hashes, h)
	d.slots[slot] = id + 1
	if uint64(len(d.terms))*4 >= uint64(len(d.slots))*3 {
		d.grow()
	}
	return id
}

// grow doubles the probe table, re-bucketing by memoized hash.
func (d *TermDict) grow() {
	slots := make([]uint32, 2*len(d.slots))
	mask := uint64(len(slots) - 1)
	for id, h := range d.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(id) + 1
	}
	d.slots = slots
}

// Len returns the number of interned terms.
func (d *TermDict) Len() int { return len(d.terms) }

// Terms returns the term sequence indexed by id, capacity-capped so later
// Intern appends reallocate instead of writing past it: the snapshot stays
// valid, and immutable, while the dictionary grows.
func (d *TermDict) Terms() []Term {
	return d.terms[:len(d.terms):len(d.terms)]
}

// clone returns an independent copy.
func (d *TermDict) clone() TermDict {
	return TermDict{
		terms:  append([]Term(nil), d.terms...),
		hashes: append([]uint64(nil), d.hashes...),
		slots:  append([]uint32(nil), d.slots...),
	}
}
