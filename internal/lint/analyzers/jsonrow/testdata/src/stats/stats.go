// Package stats is a fixture mirror of the real sqpeer/internal/stats
// statistics payload: the analyzer matches any package whose import path
// ends in "stats".
package stats

// PeerStats mirrors the per-site Stats packet payload.
type PeerStats struct {
	Peer         string
	PropertyCard map[string]int
}
