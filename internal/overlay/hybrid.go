// Package overlay builds and drives Semantic Overlay Networks over the
// peer runtime (paper §3): the hybrid architecture with a super-peer
// backbone (§3.1), the ad-hoc self-adaptive architecture with interleaved
// query routing and processing (§3.2), and the Gnutella-style flooding
// baseline the paper's SON-routing claims are measured against.
package overlay

import (
	"fmt"
	"sort"

	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// Hybrid is a super-peer SON: every simple-peer attaches to a super-peer
// that collects its cluster's active-schemas; super-peers form a fully
// connected backbone and answer routing requests, possibly consulting
// each other when a query's schema is unknown locally.
type Hybrid struct {
	// Net is the shared transport.
	Net *network.Network
	// Schema is the community schema of this SON.
	Schema *rdf.Schema

	supers    map[pattern.PeerID]*peer.Peer
	simples   map[pattern.PeerID]*peer.Peer
	clusterOf map[pattern.PeerID]pattern.PeerID
}

// NewHybrid returns an empty hybrid SON on the network.
func NewHybrid(net *network.Network, schema *rdf.Schema) *Hybrid {
	return &Hybrid{
		Net:       net,
		Schema:    schema,
		supers:    map[pattern.PeerID]*peer.Peer{},
		simples:   map[pattern.PeerID]*peer.Peer{},
		clusterOf: map[pattern.PeerID]pattern.PeerID{},
	}
}

// AddSuperPeer creates a super-peer and joins it to the backbone (every
// existing super-peer learns of it and vice versa).
func (h *Hybrid) AddSuperPeer(id pattern.PeerID) (*peer.Peer, error) {
	if _, dup := h.supers[id]; dup {
		return nil, fmt.Errorf("overlay: super-peer %s already exists", id)
	}
	sp, err := peer.New(peer.Config{ID: id, Kind: peer.SuperPeer, Schema: h.Schema}, h.Net)
	if err != nil {
		return nil, err
	}
	for other := range h.supers {
		sp.AddNeighbor(other)
		h.supers[other].AddNeighbor(id)
	}
	h.supers[id] = sp
	// Backbone-aware routing: replace the plain routing handler with one
	// that consults sibling super-peers for path patterns the local
	// cluster cannot cover.
	h.Net.Handle(id, "query.route", h.backboneRouteHandler(sp))
	return sp, nil
}

// backboneRouteHandler routes with the super-peer's cluster knowledge
// and, when the annotation is incomplete, merges annotations pulled from
// the other super-peers (the backbone discovery of §3.1). A request from
// a sibling super-peer is answered from this cluster alone, so the
// backbone is one hop deep and two siblings never ask each other back.
func (h *Hybrid) backboneRouteHandler(sp *peer.Peer) network.Handler {
	return func(msg network.Message) ([]byte, error) {
		q, err := pattern.UnmarshalQuery(msg.Payload)
		if err != nil {
			return nil, fmt.Errorf("overlay: super-peer %s: bad routing request: %w", sp.ID, err)
		}
		ann := sp.Router.Route(q)
		if _, sibling := h.supers[msg.From]; !ann.Complete() && !sibling {
			for _, other := range h.SuperPeerIDs() {
				if other == sp.ID {
					continue
				}
				remote, err := sp.RequestRouting(other, q)
				if err != nil {
					continue // dead sibling: use what we have
				}
				ann.Merge(remote)
				if ann.Complete() {
					break
				}
			}
		}
		return pattern.MarshalAnnotated(ann)
	}
}

// AddSimplePeer creates a simple-peer with the given base, attaches it to
// the super-peer, and pushes its advertisement there (the push of §3.1).
func (h *Hybrid) AddSimplePeer(id pattern.PeerID, base *rdf.Base, super pattern.PeerID) (*peer.Peer, error) {
	if _, ok := h.supers[super]; !ok {
		return nil, fmt.Errorf("overlay: unknown super-peer %s", super)
	}
	if _, dup := h.simples[id]; dup {
		return nil, fmt.Errorf("overlay: simple-peer %s already exists", id)
	}
	p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: h.Schema, Base: base}, h.Net)
	if err != nil {
		return nil, err
	}
	p.Super = super
	if err := p.PushAdvertisement(super); err != nil {
		return nil, fmt.Errorf("overlay: advertising %s to %s: %w", id, super, err)
	}
	h.simples[id] = p
	h.clusterOf[id] = super
	return p, nil
}

// RemovePeer detaches a simple-peer from the SON gracefully: the peer
// announces its departure to its super-peer before leaving the network.
func (h *Hybrid) RemovePeer(id pattern.PeerID) {
	super, ok := h.clusterOf[id]
	if !ok {
		return
	}
	h.simples[id].AnnounceDeparture(super)
	delete(h.simples, id)
	delete(h.clusterOf, id)
	h.Net.RemoveNode(id)
}

// Peer returns a simple-peer by id.
func (h *Hybrid) Peer(id pattern.PeerID) (*peer.Peer, bool) {
	p, ok := h.simples[id]
	return p, ok
}

// SuperPeer returns a super-peer by id.
func (h *Hybrid) SuperPeer(id pattern.PeerID) (*peer.Peer, bool) {
	p, ok := h.supers[id]
	return p, ok
}

// SuperPeerIDs returns the backbone ids, sorted.
func (h *Hybrid) SuperPeerIDs() []pattern.PeerID {
	out := make([]pattern.PeerID, 0, len(h.supers))
	for id := range h.supers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SimplePeerIDs returns the simple-peer ids, sorted.
func (h *Hybrid) SimplePeerIDs() []pattern.PeerID {
	out := make([]pattern.PeerID, 0, len(h.simples))
	for id := range h.simples {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Query runs the two-phase hybrid evaluation of §3.1 for an RQL query
// posed at a simple-peer: phase one routes at the super-peer (returning
// the annotated pattern), phase two generates, optimizes and executes the
// plan at the simple-peer.
func (h *Hybrid) Query(at pattern.PeerID, rqlText string) (*rql.ResultSet, error) {
	p, ok := h.simples[at]
	if !ok {
		return nil, fmt.Errorf("overlay: unknown simple-peer %s", at)
	}
	return p.Ask(rqlText)
}
