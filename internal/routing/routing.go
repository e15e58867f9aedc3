// Package routing implements SQPeer's semantic query routing (paper §2.3):
// matching a semantic query pattern against the active-schemas a node
// knows about, producing an annotated query pattern that records, per path
// pattern, the peers able to answer it and the rewritten patterns each
// peer should evaluate.
//
// Two matching strategies are provided. The brute-force path is the
// paper's literal O(n·m·l) pseudocode: every advertisement of every peer
// is tested against every query pattern. The indexed path keeps an
// inverted index from property IRI to (peer, path-pattern) postings,
// expanded through the schema's super-property closure at registration
// time, so one route touches only the candidate postings of each query
// pattern's property — sub-linear in SON size for selective schemas. Both
// produce identical annotations; the brute-force path is retained as an
// ablation and as the fallback for registries without a schema.
package routing

import (
	"sort"
	"sync"

	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
)

// Posting is one inverted-index entry: a peer advertising a path pattern
// whose property is subsumed by the index key.
type Posting struct {
	// Peer is the advertising peer.
	Peer pattern.PeerID
	// Pattern is the advertised path pattern (the ASjk of the paper's
	// pseudocode). Its property is a sub-property of — or equal to — the
	// property the posting is filed under.
	Pattern pattern.PathPattern
}

// Registry is the routing knowledge a node holds: the active-schemas of
// the peers it has learned about (its own, its cluster's for a super-peer,
// its semantic neighborhood's for an ad-hoc peer). Registry is safe for
// concurrent use — advertisements arrive from the network while queries
// route.
//
// A registry built with NewIndexedRegistry additionally maintains the
// inverted property index; registration expands each advertised property
// through the schema's super-property closure so queries over a
// super-property find peers advertising any of its sub-properties.
type Registry struct {
	mu      sync.RWMutex
	schema  *rdf.Schema // nil: no index maintained
	schemas map[pattern.PeerID]*pattern.ActiveSchema
	// index maps property IRI -> peer -> advertised patterns, maintained
	// incrementally on Register/Unregister. Inner pattern slices are
	// immutable once stored (Register always builds fresh slices), so a
	// View may safely alias them.
	index map[rdf.IRI]map[pattern.PeerID][]pattern.PathPattern
	// peerProps records which index keys each peer posted under, for O(1)
	// unregistration.
	peerProps map[pattern.PeerID][]rdf.IRI
	// quarantined marks peers whose advertisements are suppressed from
	// views (and hence from routing) without being forgotten: the schema
	// stays registered so reinstatement is a flag flip, not a re-learn.
	quarantined map[pattern.PeerID]bool
	// epoch counts mutations; the cached view is valid only for the epoch
	// it was built at.
	epoch uint64
	view  *View
	// hits counts, per advertised peer, how many routed queries were
	// annotated with it — the demand signal hot-advertisement
	// replication acts on. Recording a hit does NOT bump the epoch:
	// demand observation is not a routing change, so cached views stay
	// valid.
	hits map[pattern.PeerID]uint64
}

// NewRegistry returns an empty registry without an inverted index; routing
// over it always uses the brute-force path.
func NewRegistry() *Registry {
	return &Registry{
		schemas:     map[pattern.PeerID]*pattern.ActiveSchema{},
		quarantined: map[pattern.PeerID]bool{},
	}
}

// NewIndexedRegistry returns an empty registry that maintains the inverted
// property index against the given community schema.
func NewIndexedRegistry(schema *rdf.Schema) *Registry {
	r := NewRegistry()
	r.schema = schema
	r.index = map[rdf.IRI]map[pattern.PeerID][]pattern.PathPattern{}
	r.peerProps = map[pattern.PeerID][]rdf.IRI{}
	return r
}

// bump invalidates the cached view after a mutation. Callers hold r.mu.
func (r *Registry) bump() {
	r.epoch++
	r.view = nil
}

// indexLocked adds a peer's postings. Callers hold r.mu and have already
// removed any previous postings for the peer.
func (r *Registry) indexLocked(peer pattern.PeerID, as *pattern.ActiveSchema) {
	if r.schema == nil {
		return
	}
	var keys []rdf.IRI
	for _, asp := range as.Patterns {
		// File the advertisement under every super-property (including the
		// property itself): a query over prop1 then finds a peer
		// advertising prop4 ⊑ prop1 by direct lookup.
		for _, sup := range r.schema.SuperProperties(asp.Property) {
			bucket, ok := r.index[sup]
			if !ok {
				bucket = map[pattern.PeerID][]pattern.PathPattern{}
				r.index[sup] = bucket
			}
			if len(bucket[peer]) == 0 {
				keys = append(keys, sup)
			}
			// Append-to-fresh-slice: the stored slice is never mutated in
			// place after this Register completes, so views may alias it.
			bucket[peer] = append(append([]pattern.PathPattern{}, bucket[peer]...), asp)
		}
	}
	r.peerProps[peer] = keys
}

// unindexLocked removes a peer's postings. Callers hold r.mu.
func (r *Registry) unindexLocked(peer pattern.PeerID) {
	if r.schema == nil {
		return
	}
	for _, key := range r.peerProps[peer] {
		if bucket, ok := r.index[key]; ok {
			delete(bucket, peer)
			if len(bucket) == 0 {
				delete(r.index, key)
			}
		}
	}
	delete(r.peerProps, peer)
}

// Register records (or replaces) a peer's active-schema advertisement.
func (r *Registry) Register(peer pattern.PeerID, as *pattern.ActiveSchema) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[peer]; ok {
		r.unindexLocked(peer)
	}
	r.schemas[peer] = as
	r.indexLocked(peer, as)
	r.bump()
}

// Unregister forgets a peer, e.g. when it leaves the SON or a channel to
// it fails. Forgetting also lifts any quarantine: a peer that later
// re-registers starts with a clean slate.
func (r *Registry) Unregister(peer pattern.PeerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wasQuarantined := r.quarantined[peer]
	delete(r.quarantined, peer)
	if _, ok := r.schemas[peer]; !ok {
		if wasQuarantined {
			r.bump()
		}
		return
	}
	delete(r.schemas, peer)
	r.unindexLocked(peer)
	r.bump()
}

// Quarantine suppresses a peer's advertisements from routing views
// without forgetting its schema (circuit-breaker open: the peer is
// suspected, not departed). The epoch bumps, so every Route call after
// the quarantine excludes the peer with no per-call filtering. Returns
// whether the call changed anything (false for unknown or
// already-quarantined peers). Note that Register does NOT lift an
// existing quarantine — a misbehaving peer re-advertising stays dark
// until Reinstate or Unregister.
func (r *Registry) Quarantine(peer pattern.PeerID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[peer]; !ok || r.quarantined[peer] {
		return false
	}
	r.quarantined[peer] = true
	r.bump()
	return true
}

// Reinstate lifts a peer's quarantine, making its stored advertisement
// routable again. Returns whether the peer was quarantined.
func (r *Registry) Reinstate(peer pattern.PeerID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.quarantined[peer] {
		return false
	}
	delete(r.quarantined, peer)
	r.bump()
	return true
}

// IsQuarantined reports whether the peer is quarantined.
func (r *Registry) IsQuarantined(peer pattern.PeerID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.quarantined[peer]
}

// QuarantinedPeers returns the quarantined peers, sorted.
func (r *Registry) QuarantinedPeers() []pattern.PeerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]pattern.PeerID, 0, len(r.quarantined))
	for p := range r.quarantined {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RecordHits charges one routing hit to each named peer (the router
// calls this with the annotated peer set after every route). The epoch
// is deliberately not bumped — see the hits field.
func (r *Registry) RecordHits(peers []pattern.PeerID) {
	if len(peers) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hits == nil {
		r.hits = map[pattern.PeerID]uint64{}
	}
	for _, p := range peers {
		r.hits[p]++
	}
}

// Hits returns how many routed queries annotated the peer since the
// last ResetHits.
func (r *Registry) Hits(peer pattern.PeerID) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hits[peer]
}

// HotPeers returns the k peers with the most routing hits, hottest
// first (ties broken by id). Quarantined peers are included — an
// overloaded advertisement is exactly the kind worth replicating away
// from. Peers with zero hits never appear.
func (r *Registry) HotPeers(k int) []pattern.PeerID {
	if k <= 0 {
		return nil
	}
	r.mu.RLock()
	out := make([]pattern.PeerID, 0, len(r.hits))
	for p, n := range r.hits {
		if n > 0 {
			out = append(out, p)
		}
	}
	hits := make(map[pattern.PeerID]uint64, len(out))
	for _, p := range out {
		hits[p] = r.hits[p]
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if hits[out[i]] != hits[out[j]] {
			return hits[out[i]] > hits[out[j]]
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ResetHits zeroes the demand counters (e.g. between observation
// windows, after a rebalance acted on them).
func (r *Registry) ResetHits() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits = nil
}

// Get returns the peer's advertisement.
func (r *Registry) Get(peer pattern.PeerID) (*pattern.ActiveSchema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	as, ok := r.schemas[peer]
	return as, ok
}

// Peers returns all known peers, sorted.
func (r *Registry) Peers() []pattern.PeerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]pattern.PeerID, 0, len(r.schemas))
	for p := range r.schemas {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of known peers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.schemas)
}

// Epoch returns the registry's mutation counter. Each Register/Unregister
// bumps it, which is how snapshot views and derived indexes detect
// staleness.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// View is an immutable, epoch-stamped snapshot of a registry: a consistent
// set of advertisements (and, for indexed registries, postings) that one
// routing invocation works over while registrations continue concurrently.
// Views are never mutated after construction; holding one is always safe.
type View struct {
	// Epoch is the registry epoch the view was built at.
	Epoch uint64
	// schemas and peers snapshot the advertisement table.
	schemas map[pattern.PeerID]*pattern.ActiveSchema
	peers   []pattern.PeerID
	// postings is the flattened inverted index (nil for unindexed
	// registries): property -> postings sorted by peer, patterns in
	// advertisement order.
	postings map[rdf.IRI][]Posting
}

// Get returns the peer's advertisement in the view.
func (v *View) Get(peer pattern.PeerID) (*pattern.ActiveSchema, bool) {
	as, ok := v.schemas[peer]
	return as, ok
}

// Peers returns the view's peers, sorted. The returned slice is shared and
// must not be mutated.
func (v *View) Peers() []pattern.PeerID { return v.peers }

// Len returns the number of peers in the view.
func (v *View) Len() int { return len(v.schemas) }

// Indexed reports whether the view carries inverted-index postings.
func (v *View) Indexed() bool { return v.postings != nil }

// PostingsFor returns the candidate postings for a property, sorted by
// peer. The returned slice is shared and must not be mutated.
func (v *View) PostingsFor(prop rdf.IRI) []Posting { return v.postings[prop] }

// Snapshot returns an immutable epoch-stamped view of the registry. The
// view is cached: repeated snapshots of an unchanged registry are O(1),
// and any Register/Unregister invalidates the cache by bumping the epoch.
// Callers merging one node's knowledge into another's iterate
// View.Peers()/View.Get.
func (r *Registry) Snapshot() *View {
	r.mu.RLock()
	v := r.view
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil {
		r.view = r.buildViewLocked()
	}
	return r.view
}

// buildViewLocked flattens the registry into an immutable view,
// excluding quarantined peers — the one place the quarantine takes
// effect, so both routing strategies skip suspected peers for free.
// Callers hold r.mu.
func (r *Registry) buildViewLocked() *View {
	v := &View{
		Epoch:   r.epoch,
		schemas: make(map[pattern.PeerID]*pattern.ActiveSchema, len(r.schemas)),
		peers:   make([]pattern.PeerID, 0, len(r.schemas)),
	}
	for p, as := range r.schemas {
		if r.quarantined[p] {
			continue
		}
		v.schemas[p] = as
		v.peers = append(v.peers, p)
	}
	sort.Slice(v.peers, func(i, j int) bool { return v.peers[i] < v.peers[j] })
	if r.schema != nil {
		v.postings = make(map[rdf.IRI][]Posting, len(r.index))
		for prop, bucket := range r.index {
			flat := make([]Posting, 0, len(bucket))
			peers := make([]pattern.PeerID, 0, len(bucket))
			for p := range bucket {
				if r.quarantined[p] {
					continue
				}
				peers = append(peers, p)
			}
			sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
			for _, p := range peers {
				for _, pp := range bucket[p] {
					flat = append(flat, Posting{Peer: p, Pattern: pp})
				}
			}
			if len(flat) > 0 {
				v.postings[prop] = flat
			}
		}
	}
	return v
}

// Stats reports the work one routing invocation performed, used by the
// routing-throughput benchmarks (FIG-2).
type Stats struct {
	// Comparisons counts isSubsumed tests executed — the inner-loop cost
	// of the paper's O(n·m·l) pseudocode. The indexed path only tests
	// candidate postings, so this is how the index's work saving shows up.
	Comparisons int
	// PeersConsidered counts registered peers examined.
	PeersConsidered int
	// Annotations counts (pattern, peer) annotations produced.
	Annotations int
	// Indexed reports whether the inverted-index path answered the route.
	Indexed bool
}

// Router runs the Query-Routing Algorithm over a registry.
type Router struct {
	// Schema is the community schema supplying subsumption.
	Schema *rdf.Schema
	// Registry holds the known peer advertisements.
	Registry *Registry
	// Mode selects full RDF/S subsumption (the paper's algorithm) or the
	// exact-match ablation.
	Mode pattern.SubsumptionMode
	// MaxPeersPerPattern, when positive, caps how many peers each path
	// pattern is annotated with — the paper's future-work constraint on
	// "the number of peer nodes that each query is broadcasted and
	// further processed" (§5), trading answer completeness for
	// processing load. Peers covering more of the whole query are kept
	// first (they answer locally with fewer channels), ties broken by id.
	MaxPeersPerPattern int
	// BruteForce, when set, disables the inverted-index path even on an
	// indexed registry — the ablation the FIG-2 index benchmarks compare
	// against.
	BruteForce bool
}

// NewRouter returns a router with full subsumption over the registry.
func NewRouter(schema *rdf.Schema, reg *Registry) *Router {
	return &Router{Schema: schema, Registry: reg, Mode: pattern.FullSubsumption}
}

// Route runs the paper's Query-Routing Algorithm:
//
//	AQ' := empty annotations for AQ
//	for each query path pattern AQi ∈ AQ:
//	  for each active-schema ASj:
//	    for each path pattern ASjk ∈ ASj:
//	      if isSubsumed(ASjk, AQi): annotate AQ'i with peer Pj
//	return AQ'
//
// The annotation also records the rewritten patterns (ASjk with AQi's
// variables), implementing the per-peer query rewriting of §2.3. On an
// indexed registry the inner two loops collapse to an index lookup over
// the pattern's property; the result is identical.
func (r *Router) Route(q *pattern.QueryPattern) *pattern.Annotated {
	ann, _ := r.RouteWithStats(q)
	return ann
}

// RouteWithStats is Route plus work counters.
func (r *Router) RouteWithStats(q *pattern.QueryPattern) (*pattern.Annotated, Stats) {
	v := r.Registry.Snapshot()
	var ann *pattern.Annotated
	var st Stats
	if v.Indexed() && !r.BruteForce {
		ann, st = r.routeIndexed(q, v)
	} else {
		ann, st = r.routeBrute(q, v)
	}
	if r.MaxPeersPerPattern > 0 {
		r.truncateAnnotation(ann, v)
	}
	// Demand accounting for hot-advertisement replication: every peer the
	// final annotation names took one hit.
	r.Registry.RecordHits(ann.AllPeers())
	return ann, st
}

// rewriteFor specializes an advertised pattern to the query pattern's
// variables and id (the per-peer query rewriting of §2.3).
func rewriteFor(qp, asp pattern.PathPattern) pattern.PathPattern {
	return pattern.PathPattern{
		ID:         qp.ID,
		SubjectVar: qp.SubjectVar,
		ObjectVar:  qp.ObjectVar,
		Property:   asp.Property,
		Domain:     asp.Domain,
		Range:      asp.Range,
	}
}

// routeBrute is the paper's literal triple loop over every advertisement.
func (r *Router) routeBrute(q *pattern.QueryPattern, v *View) (*pattern.Annotated, Stats) {
	ann := pattern.NewAnnotated(q)
	var st Stats
	for _, qp := range q.Patterns {
		for _, peer := range v.Peers() {
			st.PeersConsidered++
			as, _ := v.Get(peer)
			if as.SchemaName != "" && q.SchemaName != "" && as.SchemaName != q.SchemaName {
				continue // different SON
			}
			var rewrites []pattern.PathPattern
			for _, asp := range as.Patterns {
				st.Comparisons++
				if r.Mode.Matches(r.Schema, asp, qp) {
					rewrites = append(rewrites, rewriteFor(qp, asp))
				}
			}
			if len(rewrites) > 0 {
				ann.Annotate(qp.ID, peer, rewrites)
				st.Annotations++
			}
		}
	}
	return ann, st
}

// routeIndexed answers the route from the inverted index: per query
// pattern, only the postings filed under the pattern's property are
// candidates. Property subsumption is guaranteed by construction for the
// full-subsumption mode; domain/range (and, for the exact-only ablation,
// shape equality) are still verified per posting.
func (r *Router) routeIndexed(q *pattern.QueryPattern, v *View) (*pattern.Annotated, Stats) {
	ann := pattern.NewAnnotated(q)
	st := Stats{Indexed: true}
	for _, qp := range q.Patterns {
		postings := v.PostingsFor(qp.Property)
		var cur pattern.PeerID
		var rewrites []pattern.PathPattern
		flush := func() {
			if len(rewrites) > 0 {
				ann.Annotate(qp.ID, cur, rewrites)
				st.Annotations++
				rewrites = nil
			}
		}
		for _, post := range postings {
			if post.Peer != cur {
				flush()
				cur = post.Peer
				st.PeersConsidered++
				if as, ok := v.Get(cur); ok &&
					as.SchemaName != "" && q.SchemaName != "" && as.SchemaName != q.SchemaName {
					// Different SON: skip this peer's postings wholesale.
					cur = ""
					continue
				}
			}
			if cur == "" {
				continue
			}
			st.Comparisons++
			if r.Mode.Matches(r.Schema, post.Pattern, qp) {
				rewrites = append(rewrites, rewriteFor(qp, post.Pattern))
			}
		}
		flush()
	}
	return ann, st
}

// truncateAnnotation keeps at most MaxPeersPerPattern peers per path
// pattern, preferring peers whose advertisement covers more of the whole
// query. Coverage is computed only for the peers the route actually
// annotated — not every registered peer.
func (r *Router) truncateAnnotation(ann *pattern.Annotated, v *View) {
	coverage := map[pattern.PeerID]float64{}
	for _, peer := range ann.AllPeers() {
		if as, ok := v.Get(peer); ok {
			coverage[peer] = pattern.CoverageFraction(r.Schema, as, ann.Query, r.Mode)
		}
	}
	truncated := pattern.NewAnnotated(ann.Query)
	for _, qp := range ann.Query.Patterns {
		peers := append([]pattern.PeerID{}, ann.PeersFor(qp.ID)...)
		sort.Slice(peers, func(i, j int) bool {
			ci, cj := coverage[peers[i]], coverage[peers[j]]
			if ci != cj {
				return ci > cj
			}
			return peers[i] < peers[j]
		})
		if len(peers) > r.MaxPeersPerPattern {
			peers = peers[:r.MaxPeersPerPattern]
		}
		for _, peer := range peers {
			truncated.Annotate(qp.ID, peer, ann.RewritesFor(qp.ID, peer))
		}
	}
	ann.Peers = truncated.Peers
	ann.Rewrites = truncated.Rewrites
}

// RelevantPeers returns the peers whose advertisement covers at least one
// path pattern of the query — the set a SON delivers the query to, versus
// flooding's everyone.
func (r *Router) RelevantPeers(q *pattern.QueryPattern) []pattern.PeerID {
	return r.Route(q).AllPeers()
}

// RoutePatterns routes a bare set of path patterns — a subplan's leaves,
// not a whole query — against a fresh registry snapshot. The plan-change
// protocol uses it to find an alternate peer for one migrating subtree
// without re-routing the entire query: the snapshot is quarantine-aware,
// so peers dropped mid-execution are already excluded.
func (r *Router) RoutePatterns(pats []pattern.PathPattern) *pattern.Annotated {
	q := &pattern.QueryPattern{Patterns: pats}
	return r.Route(q)
}
