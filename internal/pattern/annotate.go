package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// Annotated is an annotated query pattern — the output of the
// Query-Routing Algorithm (paper §2.3, Figure 2): the original query
// pattern plus, per path pattern, the peers able to answer it and the
// rewritten (specialized) patterns each peer should evaluate.
type Annotated struct {
	// Query is the routed query pattern.
	Query *QueryPattern
	// Peers maps a path pattern id to the peers annotated on it, sorted.
	Peers map[string][]PeerID
	// Rewrites maps "patternID/peerID" to the specialized path patterns
	// that peer should evaluate for the pattern (per-peer query rewriting
	// under subsumption).
	Rewrites map[string][]PathPattern
}

// NewAnnotated builds an empty annotation for the query (step 1 of the
// routing pseudocode: "construct empty annotations").
func NewAnnotated(q *QueryPattern) *Annotated {
	a := &Annotated{
		Query:    q,
		Peers:    map[string][]PeerID{},
		Rewrites: map[string][]PathPattern{},
	}
	for _, p := range q.Patterns {
		a.Peers[p.ID] = nil
	}
	return a
}

// rewriteKey forms the Rewrites map key.
func rewriteKey(patternID string, peer PeerID) string {
	return patternID + "/" + string(peer)
}

// Annotate records that peer can answer path pattern patternID through the
// given specialized patterns. Annotating the same peer twice merges the
// rewrites.
func (a *Annotated) Annotate(patternID string, peer PeerID, rewrites []PathPattern) {
	found := false
	for _, p := range a.Peers[patternID] {
		if p == peer {
			found = true
			break
		}
	}
	if !found {
		a.Peers[patternID] = append(a.Peers[patternID], peer)
		sort.Slice(a.Peers[patternID], func(i, j int) bool {
			return a.Peers[patternID][i] < a.Peers[patternID][j]
		})
	}
	key := rewriteKey(patternID, peer)
	for _, rw := range rewrites {
		dup := false
		for _, existing := range a.Rewrites[key] {
			if existing.SameShape(rw) {
				dup = true
				break
			}
		}
		if !dup {
			a.Rewrites[key] = append(a.Rewrites[key], rw)
		}
	}
}

// PeersFor returns the peers annotated on the path pattern, sorted.
func (a *Annotated) PeersFor(patternID string) []PeerID { return a.Peers[patternID] }

// RewritesFor returns the specialized patterns peer should evaluate for
// the path pattern. When empty, the peer evaluates the original pattern.
func (a *Annotated) RewritesFor(patternID string, peer PeerID) []PathPattern {
	return a.Rewrites[rewriteKey(patternID, peer)]
}

// Complete reports whether every path pattern has at least one peer — the
// condition under which plan generation produces a plan with no holes.
func (a *Annotated) Complete() bool {
	for _, p := range a.Query.Patterns {
		if len(a.Peers[p.ID]) == 0 {
			return false
		}
	}
	return true
}

// Holes returns the ids of path patterns with no annotated peer, sorted.
func (a *Annotated) Holes() []string {
	var out []string
	for _, p := range a.Query.Patterns {
		if len(a.Peers[p.ID]) == 0 {
			out = append(out, p.ID)
		}
	}
	sort.Strings(out)
	return out
}

// AllPeers returns every peer appearing in any annotation, sorted.
func (a *Annotated) AllPeers() []PeerID {
	set := map[PeerID]struct{}{}
	for _, peers := range a.Peers {
		for _, p := range peers {
			set[p] = struct{}{}
		}
	}
	out := make([]PeerID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds another annotation of the same query into a, used when a
// partial plan travels between peers and each contributes its local
// knowledge (ad-hoc interleaved routing, §3.2).
func (a *Annotated) Merge(b *Annotated) {
	if b == nil {
		return
	}
	for pid, peers := range b.Peers {
		for _, peer := range peers {
			a.Annotate(pid, peer, b.RewritesFor(pid, peer))
		}
	}
}

// String renders the annotation in the paper's Figure-2 style, e.g.
// "Q1 → [P1 P2 P4]; Q2 → [P1 P3 P4]".
func (a *Annotated) String() string {
	parts := make([]string, 0, len(a.Query.Patterns))
	for _, p := range a.Query.Patterns {
		peers := a.Peers[p.ID]
		names := make([]string, len(peers))
		for i, id := range peers {
			names[i] = string(id)
		}
		parts = append(parts, fmt.Sprintf("%s → [%s]", p.ID, strings.Join(names, " ")))
	}
	return strings.Join(parts, "; ")
}
