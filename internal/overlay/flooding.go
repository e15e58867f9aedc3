package overlay

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// Flooding is the Gnutella-style baseline the paper's SON claims are
// measured against: queries are broadcast TTL-hops deep through the
// physical neighbor graph; every reached peer evaluates the whole query
// against its local base and returns its local answer to the initiator.
// There is no schema-based routing and no distributed join, so flooding
// pays messages at every peer (relevant or not) and misses answers whose
// path patterns span peers.
type Flooding struct {
	// Net is the shared transport.
	Net *network.Network
	// Schema is the community schema used for local evaluation.
	Schema *rdf.Schema
	// DeadlineMS bounds each flood hop on the simulated clock (0 =
	// none); a stalled neighbor fails its hop instead of pinning the
	// whole flood.
	DeadlineMS float64

	mu    sync.Mutex
	peers map[pattern.PeerID]*peer.Peer
	seen  map[pattern.PeerID]map[string]bool // per-peer seen query ids
}

// NewFlooding returns an empty flooding network.
func NewFlooding(net *network.Network, schema *rdf.Schema) *Flooding {
	return &Flooding{
		Net:    net,
		Schema: schema,
		peers:  map[pattern.PeerID]*peer.Peer{},
		seen:   map[pattern.PeerID]map[string]bool{},
	}
}

// AddPeer creates a peer with the given base and physical neighbors
// (symmetric links). No advertisements are exchanged — flooding has no
// routing knowledge.
func (f *Flooding) AddPeer(id pattern.PeerID, base *rdf.Base, neighbors ...pattern.PeerID) (*peer.Peer, error) {
	f.mu.Lock()
	if _, dup := f.peers[id]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("overlay: peer %s already exists", id)
	}
	f.mu.Unlock()
	p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: f.Schema, Base: base}, f.Net)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.peers[id] = p
	f.seen[id] = map[string]bool{}
	f.mu.Unlock()
	f.Net.Handle(id, "flood.query", f.queryHandler(p))
	for _, n := range neighbors {
		f.mu.Lock()
		pn, ok := f.peers[n]
		f.mu.Unlock()
		if ok {
			p.AddNeighbor(n)
			pn.AddNeighbor(id)
		}
	}
	return p, nil
}

// Peer returns a peer by id.
func (f *Flooding) Peer(id pattern.PeerID) (*peer.Peer, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.peers[id]
	return p, ok
}

// PeerIDs returns all peer ids, sorted.
func (f *Flooding) PeerIDs() []pattern.PeerID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]pattern.PeerID, 0, len(f.peers))
	for id := range f.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// floodReq is the wire form of a flooded query.
type floodReq struct {
	QueryID string `json:"queryId"`
	RQL     string `json:"rql"`
	TTL     int    `json:"ttl"`
}

// encodeFloodReply frames the rows gathered below a peer: the count of
// peers that processed the query in that subtree (uvarint), then the rows
// as an rql batch frame. Rows too large for one frame fail here, at the
// sender, rather than as a malformed reply at the receiver.
func encodeFloodReply(rows *rql.ResultSet, reached int) ([]byte, error) {
	return rql.AppendBatch(binary.AppendUvarint(nil, uint64(reached)), rql.BatchOf(rows))
}

// decodeFloodReply parses an encodeFloodReply frame.
func decodeFloodReply(data []byte) (*rql.ResultSet, int, error) {
	reached, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, errors.New("overlay: bad flood reply header")
	}
	b, err := rql.DecodeBatch(data[n:])
	if err != nil {
		return nil, 0, fmt.Errorf("overlay: bad flood reply: %w", err)
	}
	return b.ResultSet(), int(reached), nil
}

// queryHandler evaluates the flooded query locally and recursively floods
// unvisited neighbors, aggregating replies.
func (f *Flooding) queryHandler(p *peer.Peer) network.Handler {
	return func(msg network.Message) ([]byte, error) {
		var req floodReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return nil, fmt.Errorf("overlay: %s: bad flood request: %w", p.ID, err)
		}
		f.mu.Lock()
		if f.seen[p.ID][req.QueryID] {
			f.mu.Unlock()
			return encodeFloodReply(rql.NewResultSet(), 0)
		}
		f.seen[p.ID][req.QueryID] = true
		f.mu.Unlock()

		rows, reached := rql.NewResultSet(), 1
		if c, err := p.Compile(req.RQL); err == nil {
			if local, err := rql.Eval(c, p.Base); err == nil {
				rows = local
			}
		}
		if req.TTL > 0 {
			fwd := floodReq{QueryID: req.QueryID, RQL: req.RQL, TTL: req.TTL - 1}
			body, err := json.Marshal(fwd)
			if err != nil {
				return nil, err
			}
			for _, n := range p.Neighbors() {
				resp, err := f.Net.CallWithin(p.ID, n, "flood.query", body, f.DeadlineMS)
				if err != nil {
					continue // dead neighbor
				}
				subRows, subReached, err := decodeFloodReply(resp)
				if err != nil {
					continue
				}
				rows = rows.Union(subRows)
				reached += subReached
			}
		}
		return encodeFloodReply(rows, reached)
	}
}

// FloodResult reports a flooded query's outcome.
type FloodResult struct {
	// Rows is the union of every reached peer's local answer.
	Rows *rql.ResultSet
	// PeersReached counts peers that processed the query.
	PeersReached int
}

var floodSeq int
var floodSeqMu sync.Mutex

// Query floods an RQL query from a peer with the given TTL and returns
// the unioned local answers.
func (f *Flooding) Query(at pattern.PeerID, rqlText string, ttl int) (*FloodResult, error) {
	f.mu.Lock()
	p, ok := f.peers[at]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("overlay: unknown peer %s", at)
	}
	floodSeqMu.Lock()
	floodSeq++
	qid := fmt.Sprintf("flood-%d", floodSeq)
	floodSeqMu.Unlock()

	// The initiator processes the query like everyone else: mark seen,
	// evaluate locally, flood neighbors.
	body, err := json.Marshal(floodReq{QueryID: qid, RQL: rqlText, TTL: ttl})
	if err != nil {
		return nil, err
	}
	resp, err := f.Net.CallWithin(p.ID, p.ID, "flood.query", body, f.DeadlineMS)
	if err != nil {
		return nil, err
	}
	rows, reached, err := decodeFloodReply(resp)
	if err != nil {
		return nil, err
	}
	return &FloodResult{Rows: rows, PeersReached: reached}, nil
}
