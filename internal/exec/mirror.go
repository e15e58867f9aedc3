package exec

import (
	"errors"
	"sync"

	"sqpeer/internal/channel"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rql"
)

// Dictionary mirrors (DESIGN §12, "Dictionary mirrors"). A serving peer
// answers in its base's ids and ships only the dictionary entries the
// root does not hold yet; the root keeps, per site, a table from those
// ids to ids in one engine-lifetime TermStore. A term then crosses each
// site→root link once per root, and reading a frame is a table lookup.
// The serving peer keeps nothing per root: every request states what the
// root holds (channel.SubplanRequest's Stamp, Mirrored and StatsGen).

const (
	// mirrorFallback bounds what a mirror frame may ship: an answer whose
	// missing entries exceed this many times the distinct ids it
	// references goes out in self-contained frames instead. Up to it, a
	// fill's excess over self-contained frames was repaid by one to
	// three warm answers in the streams measured (DESIGN §12).
	mirrorFallback = 2
	// maxMirrorTerms caps the root's mirror store. An execution that
	// starts with more terms in it starts a new store and empties every
	// site's table.
	maxMirrorTerms = 1 << 18
)

// errMirrorRefused is a mirror frame the root cannot read: its offset is
// past what the root's table holds, or it names a different dictionary
// and assumes the root holds part of it. The table changed between the
// request and the frame (the store was reset, or another stream moved
// the site to a new stamp); the retry states the fresh count.
var errMirrorRefused = &network.DeliveryError{Reason: "mirror", Transient: true,
	Detail: "exec: results frame refused: its dictionary offset is past the root's mirror"}

// mirrorSet is a root engine's copy of the base dictionaries of the
// sites it queries.
type mirrorSet struct {
	mu    sync.Mutex
	store *rql.TermStore
	sites map[pattern.PeerID]*siteMirror
}

// siteMirror is what the root holds of one site.
type siteMirror struct {
	// stamp names the base dictionary ids indexes (rdf.Base.Stamp).
	stamp uint64
	// ids[i] is the store id of the base's entry i. It only grows until a
	// reset replaces it, so a prefix read under the lock stays valid
	// outside it.
	ids []int32
	// stats is one more than the base generation of the last Stats
	// trailer applied under stamp, 0 for none.
	stats uint64
}

// mirrors returns the engine's dictionary mirrors, making them on first
// use. A shadow engine uses the mirrors of the engine it serves for.
func (e *Engine) mirrors() *mirrorSet {
	if e.serving != nil {
		return e.serving.mirrors()
	}
	if m := e.mirror.Load(); m != nil {
		return m
	}
	e.mirror.CompareAndSwap(nil, &mirrorSet{store: rql.NewTermStore(), sites: map[pattern.PeerID]*siteMirror{}})
	return e.mirror.Load()
}

// trimMirrors starts a new mirror store, emptying every table, when the
// store has outgrown its cap. Executions call it as they start, so a
// reset does not refuse the frames of dispatches already in flight
// unless executions overlap.
func (e *Engine) trimMirrors() {
	if e.serving != nil {
		e = e.serving
	}
	m := e.mirror.Load()
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store.Len() <= maxMirrorTerms {
		return
	}
	m.store = rql.NewTermStore()
	for _, sm := range m.sites {
		sm.ids = nil
	}
}

// holding is what a request states the root holds of a site: the fields
// channel.SubplanRequest carries as Stamp, Mirrored and StatsGen.
type holding struct {
	stamp    uint64
	mirrored int
	stats    uint64
}

// holding returns what the root holds of site.
func (m *mirrorSet) holding(site pattern.PeerID) holding {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sm := m.sites[site]; sm != nil {
		return holding{stamp: sm.stamp, mirrored: len(sm.ids), stats: sm.stats}
	}
	return holding{}
}

// site returns site's mirror, making an empty one. Caller holds mu.
func (m *mirrorSet) site(site pattern.PeerID) *siteMirror {
	sm := m.sites[site]
	if sm == nil {
		sm = &siteMirror{}
		m.sites[site] = sm
	}
	return sm
}

// frame reads a Results payload from site into the mirror store: a
// mirror frame is translated through the site's table after appending
// the entries it ships past the table's end, and a self-contained frame
// is rebased. Decoding and translating run outside the lock.
func (m *mirrorSet) frame(site pattern.PeerID, payload []byte) (*rql.Batch, error) {
	stamp, offset, ok := rql.PeekMirror(payload)
	if !ok {
		b, err := rql.DecodeBatch(payload)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		store := m.store
		m.mu.Unlock()
		return b.Rebase(store), nil
	}
	// The first entry continues the one before the offset, which the
	// table holds if the frame is readable at all.
	prev := ""
	if offset > 0 {
		m.mu.Lock()
		sm := m.sites[site]
		if sm == nil || sm.stamp != stamp || offset > len(sm.ids) {
			m.mu.Unlock()
			return nil, errMirrorRefused
		}
		prev = m.store.Term(sm.ids[offset-1]).Value
		m.mu.Unlock()
	}
	b, mf, err := rql.DecodeMirror(payload, prev)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	sm := m.site(site)
	if sm.stamp != mf.Stamp {
		if mf.Offset > 0 {
			m.mu.Unlock()
			return nil, errMirrorRefused
		}
		sm.stamp, sm.ids, sm.stats = mf.Stamp, nil, 0
	}
	if mf.Offset > len(sm.ids) {
		m.mu.Unlock()
		return nil, errMirrorRefused
	}
	if held := len(sm.ids) - mf.Offset; held < len(mf.Entries) {
		sm.ids = m.store.Intern(sm.ids, mf.Entries[held:])
	}
	ids, store := sm.ids, m.store
	m.mu.Unlock()
	return b.Translate(store, ids), nil
}

// final records what a stream's final packet told the root of site: the
// dictionary stamp of the site's base (0 for none, which records
// nothing), and, when applied is set, that the root applied the Stats
// trailer of base generation gen under that stamp. A new stamp empties
// the site's table, and the root's next request states it, which is
// what lets the site answer in mirror frames.
func (m *mirrorSet) final(site pattern.PeerID, stamp uint64, applied bool, gen uint64) {
	if stamp == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.site(site)
	if sm.stamp != stamp {
		sm.stamp, sm.ids, sm.stats = stamp, nil, 0
	}
	if applied {
		sm.stats = gen + 1
	}
}

// refused reports whether err is a mirror frame's refusal.
func refused(err error) bool { return errors.Is(err, errMirrorRefused) }

// mirrorOf decides, once per stream and from the whole answer, whether
// rows ship as mirror frames, and returns the first frame's dictionary
// part and the value its first entry continues; nil means self-contained
// frames. rows must index a base whose stamp req states, and the answer
// must reference some id; the entries to ship (those past what req
// states the root holds, up to the largest id referenced) must not
// exceed mirrorFallback times the distinct ids referenced. Every input
// is a set property of the answer, so the decision and the frames' bytes
// do not depend on row order.
//
// A root states a stamp only after a final packet named it, so a site's
// first answer to a root is self-contained: a mirror is filled only for
// a dictionary the root has asked again, and traffic that reaches each
// site once ships what it did without mirrors.
func mirrorOf(rows *rql.Batch, req *channel.SubplanRequest) (*rql.Mirror, string) {
	base := rows.Base()
	if base == nil || base.Stamp() != req.Stamp {
		return nil, ""
	}
	maxID, cells := int32(-1), 0
	for _, col := range rows.Cols {
		cells += len(col)
		for _, id := range col {
			maxID = max(maxID, id)
		}
	}
	if maxID < 0 {
		return nil, ""
	}
	m := &rql.Mirror{Stamp: req.Stamp, Offset: max(req.Mirrored, 0)}
	end := int(maxID) + 1
	if end <= m.Offset {
		return m, ""
	}
	if need := end - m.Offset; need > mirrorFallback*cells || need > mirrorFallback*distinct(rows, end) {
		return nil, ""
	}
	m.Entries = rows.Dict[m.Offset:end]
	if m.Offset == 0 {
		return m, ""
	}
	return m, rows.Dict[m.Offset-1].Value
}

// distinct counts the distinct ids rows references, all below end.
func distinct(rows *rql.Batch, end int) int {
	seen := make([]uint64, (end+63)/64)
	n := 0
	for _, col := range rows.Cols {
		for _, id := range col {
			if id < 0 {
				continue
			}
			if w, bit := id>>6, uint64(1)<<(id&63); seen[w]&bit == 0 {
				seen[w] |= bit
				n++
			}
		}
	}
	return n
}
