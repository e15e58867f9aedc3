package sqpeer

import (
	"sqpeer/internal/network"
	"sqpeer/internal/overlay"
	"sqpeer/internal/rdf"
)

// SON architectures (paper §3).
type (
	// HybridSON is the super-peer architecture: routing at super-peers,
	// processing at simple-peers, complete plans guaranteed.
	HybridSON = overlay.Hybrid
	// AdhocSON is the self-adaptive architecture: neighbor knowledge
	// only; a query pattern with holes is forwarded until the peers it
	// meets complete its annotation, and the initiator executes the plan.
	AdhocSON = overlay.Adhoc
	// FloodingNetwork is the Gnutella-style baseline.
	FloodingNetwork = overlay.Flooding
	// FloodResult is a flooded query's outcome.
	FloodResult = overlay.FloodResult
)

// DefaultTTL bounds how many hops an ad-hoc SON forwards a routing
// request at paper scale.
const DefaultTTL = overlay.DefaultTTL

// NewHybridSON returns an empty hybrid SON over the community schema.
func NewHybridSON(net *network.Network, schema *rdf.Schema) *HybridSON {
	return overlay.NewHybrid(net, schema)
}

// NewAdhocSON returns an empty ad-hoc SON over the community schema.
func NewAdhocSON(net *network.Network, schema *rdf.Schema) *AdhocSON {
	return overlay.NewAdhoc(net, schema)
}

// NewFloodingNetwork returns an empty flooding baseline network.
func NewFloodingNetwork(net *network.Network, schema *rdf.Schema) *FloodingNetwork {
	return overlay.NewFlooding(net, schema)
}
