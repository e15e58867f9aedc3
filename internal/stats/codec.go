package stats

import (
	"fmt"
	"slices"

	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// Binary statistics payload (DESIGN §12, "Wire format"): the Stats
// trailer of the final packet a serving peer sends for every answered
// subplan. It is a wire.Encode body, so the property IRIs the three maps
// share are written once, in the body's sorted, front-coded string table
// (where IRIs of one namespace share it):
//
//	format (2), table, peer,
//	  property cards, distinct subjects, distinct objects (each: n, n × (IRI key, count)),
//	  slots, load
//
// Map entries are written in key order; a decoder rejects unsorted or
// duplicate keys. Advertisements carry statistics too, but they are set-up
// traffic and stay JSON.

const statsFormat byte = 2

// MarshalPeerStats encodes ps as a Stats trailer body.
func MarshalPeerStats(ps *PeerStats) ([]byte, error) {
	if ps == nil {
		return nil, fmt.Errorf("stats: cannot marshal nil peer stats")
	}
	maps := [3]map[rdf.IRI]int{ps.PropertyCard, ps.DistinctSubjects, ps.DistinctObjects}
	var keys [3][]rdf.IRI
	for i, m := range maps {
		keys[i] = make([]rdf.IRI, 0, len(m))
		for k := range m {
			keys[i] = append(keys[i], k)
		}
		slices.Sort(keys[i])
	}
	return wire.Encode(statsFormat, func(w *wire.Writer) {
		w.Str(string(ps.Peer))
		for i, m := range maps {
			w.Uv(len(keys[i]))
			for _, k := range keys[i] {
				w.Str(string(k))
				w.Uv(m[k])
			}
		}
		w.Uv(ps.Slots)
		w.Uv(ps.Load)
	})
}

// UnmarshalPeerStats decodes a payload written by MarshalPeerStats. The
// three maps are never nil.
func UnmarshalPeerStats(data []byte) (*PeerStats, error) {
	r := wire.NewReader(data)
	r.Format(statsFormat)
	r.Table()
	ps := &PeerStats{}
	ps.Peer = pattern.PeerID(r.Ref())
	for _, m := range [...]*map[rdf.IRI]int{&ps.PropertyCard, &ps.DistinctSubjects, &ps.DistinctObjects} {
		n := r.Count(2)
		*m = make(map[rdf.IRI]int, n)
		last := -1
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Key(&last)
			(*m)[rdf.IRI(k)] = r.Uv()
		}
	}
	ps.Slots = r.Uv()
	ps.Load = r.Uv()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("stats: unmarshal peer stats: %w", err)
	}
	return ps, nil
}
