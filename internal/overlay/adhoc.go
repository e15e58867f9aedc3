package overlay

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"sqpeer/internal/exec"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/wire"
)

// DefaultTTL bounds how many hops a routing request may be forwarded in
// the ad-hoc architecture before the holes left are answered as missing.
const DefaultTTL = 6

// Adhoc is a self-adaptive SON (paper §3.2): peers know only their
// physical neighbors at join time, pull active-schemas to form a semantic
// neighborhood, and answer queries by interleaving routing and processing
// — a query pattern with holes travels peer-to-peer until the peers it
// meets have annotated every path pattern, and the initiator then
// executes the completed plan.
type Adhoc struct {
	// Net is the shared transport.
	Net *network.Network
	// Schema is the community schema of this SON.
	Schema *rdf.Schema

	mu    sync.Mutex
	peers map[pattern.PeerID]*peer.Peer
}

// NewAdhoc returns an empty ad-hoc SON on the network.
func NewAdhoc(net *network.Network, schema *rdf.Schema) *Adhoc {
	return &Adhoc{Net: net, Schema: schema, peers: map[pattern.PeerID]*peer.Peer{}}
}

// AddPeer creates a peer with the given base, connects it to its physical
// neighbors, and pulls their active-schemas (forming its semantic
// neighborhood). Neighbor links are symmetric.
func (a *Adhoc) AddPeer(id pattern.PeerID, base *rdf.Base, neighbors ...pattern.PeerID) (*peer.Peer, error) {
	a.mu.Lock()
	if _, dup := a.peers[id]; dup {
		a.mu.Unlock()
		return nil, fmt.Errorf("overlay: peer %s already exists", id)
	}
	a.mu.Unlock()
	// Holes no peer within the TTL fills become Unanswered patterns.
	p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: a.Schema, Base: base,
		Options: exec.Options{AllowPartial: true}}, a.Net)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.peers[id] = p
	a.mu.Unlock()
	a.Net.Handle(id, "adhoc.plan", planHandler(p))
	a.Net.Handle(id, "adv.neighbors", func(network.Message) ([]byte, error) {
		return json.Marshal(p.Neighbors())
	})
	for _, n := range neighbors {
		a.Connect(id, n)
	}
	return p, nil
}

// Connect links two peers as physical neighbors and lets each pull the
// other's advertisement (ignoring pull failures — a silent neighbor is
// simply not learned).
func (a *Adhoc) Connect(x, y pattern.PeerID) {
	a.mu.Lock()
	px, okx := a.peers[x]
	py, oky := a.peers[y]
	a.mu.Unlock()
	if !okx || !oky {
		return
	}
	px.AddNeighbor(y)
	py.AddNeighbor(x)
	_ = px.PullAdvertisement(y)
	_ = py.PullAdvertisement(x)
}

// Peer returns a peer by id.
func (a *Adhoc) Peer(id pattern.PeerID) (*peer.Peer, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.peers[id]
	return p, ok
}

// PeerIDs returns all peer ids, sorted.
func (a *Adhoc) PeerIDs() []pattern.PeerID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]pattern.PeerID, 0, len(a.peers))
	for id := range a.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RemovePeer drops a peer from the SON gracefully: it announces its
// departure to every peer in the SON (a broadcast stand-in for the
// gossip that would spread the news in a large deployment) before leaving
// the network.
func (a *Adhoc) RemovePeer(id pattern.PeerID) {
	a.mu.Lock()
	leaving, ok := a.peers[id]
	delete(a.peers, id)
	others := make([]pattern.PeerID, 0, len(a.peers))
	for pid := range a.peers {
		others = append(others, pid)
	}
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	a.mu.Unlock()
	if ok {
		leaving.AnnounceDeparture(others...)
	}
	a.Net.RemoveNode(id)
}

// ExpandNeighborhood pulls active-schemas from the k-depth neighborhood
// of a peer (the "2-depth, 3-depth, etc." expansion of §3.2), returning
// how many new advertisements were learned. Discovery of
// neighbors-of-neighbors uses one "adv.neighbors" request per frontier
// peer.
func (a *Adhoc) ExpandNeighborhood(id pattern.PeerID, depth int) (int, error) {
	a.mu.Lock()
	p, ok := a.peers[id]
	a.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("overlay: unknown peer %s", id)
	}
	learned := 0
	visited := map[pattern.PeerID]bool{id: true}
	frontier := p.Neighbors()
	for _, n := range frontier {
		visited[n] = true
	}
	for d := 1; d < depth; d++ {
		var next []pattern.PeerID
		for _, f := range frontier {
			reply, err := a.Net.CallWithin(id, f, "adv.neighbors", nil, p.Engine.DeadlineMS)
			if err != nil {
				continue
			}
			var ns []pattern.PeerID
			if err := json.Unmarshal(reply, &ns); err != nil {
				continue
			}
			for _, n := range ns {
				if !visited[n] {
					visited[n] = true
					next = append(next, n)
					if err := p.PullAdvertisement(n); err == nil {
						learned++
					}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return learned, nil
}

// planHandler serves one hop of interleaved routing: the request names
// the query pattern, the remaining TTL and the peers already visited; the
// reply is the annotation this hop and the peers it asked could give.
// No hop plans, executes or sees a row.
func planHandler(p *peer.Peer) network.Handler {
	return func(msg network.Message) ([]byte, error) {
		req, err := decodePlanReq(msg.Payload)
		if err != nil {
			return nil, fmt.Errorf("overlay: %s: bad plan request: %w", p.ID, err)
		}
		return pattern.MarshalAnnotated(route(p, req.Query, req.Visited, req.TTL))
	}
}

// planReq is a forwarded routing request (DESIGN §12, "Wire format"): a
// format byte, the remaining TTL, the peers already visited (a count,
// then each id length-prefixed), then the pattern.MarshalQuery body raw.
type planReq struct {
	TTL     int
	Visited []pattern.PeerID
	Query   *pattern.QueryPattern
}

const planReqFormat byte = 2

func encodePlanReq(req *planReq) ([]byte, error) {
	q, err := pattern.MarshalQuery(req.Query)
	if err != nil {
		return nil, err
	}
	dst := wire.AppendUvarint([]byte{planReqFormat}, req.TTL)
	dst = wire.AppendUvarint(dst, len(req.Visited))
	for _, id := range req.Visited {
		dst = wire.AppendStr(dst, string(id))
	}
	return append(dst, q...), nil
}

func decodePlanReq(b []byte) (planReq, error) {
	r := wire.NewReader(b)
	r.Format(planReqFormat)
	req := planReq{TTL: r.Uv()}
	if n := r.Count(1); n > 0 {
		req.Visited = make([]pattern.PeerID, n)
		for i := range req.Visited {
			req.Visited[i] = pattern.PeerID(r.Str())
		}
	}
	q := r.Rest()
	if err := r.Err(); err != nil {
		return req, err
	}
	var err error
	req.Query, err = pattern.UnmarshalQuery(q)
	return req, err
}

// Query answers an RQL query at a peer using the ad-hoc discipline
// (§3.2): the peer routes with its own knowledge and forwards the holes
// along the SON, at most ttl hops deep (DefaultTTL at paper scale),
// until the annotation is complete; then it plans and executes the query
// itself, over channels straight to every serving peer, as
// Peer.AskAnnotated does. Holes no peer within the TTL fills come back as
// Unanswered patterns of a partial answer.
func (a *Adhoc) Query(at pattern.PeerID, rqlText string, ttl int) (*exec.Result, error) {
	p, ok := a.Peer(at)
	if !ok {
		return nil, fmt.Errorf("overlay: unknown peer %s", at)
	}
	return p.AskRouted(rqlText, func(q *pattern.QueryPattern) (*pattern.Annotated, error) {
		return route(p, q, nil, ttl), nil
	})
}

// route is one step of interleaved routing at peer p: annotate the query
// with p's knowledge; while holes remain and the TTL allows, ask the
// candidates in turn — the peers p annotated (they answer part of the
// query, as in Figure 7 where P1 asks P2 and P3), then its physical
// neighbors, none of them already visited — merging each reply until the
// annotation is complete. Failed candidates are skipped.
func route(p *peer.Peer, q *pattern.QueryPattern, visited []pattern.PeerID, ttl int) *pattern.Annotated {
	ann := p.Router.Route(q)
	if ann.Complete() || ttl <= 0 {
		return ann
	}
	seen := map[pattern.PeerID]bool{p.ID: true}
	for _, v := range visited {
		seen[v] = true
	}
	var cands []pattern.PeerID
	for _, id := range append(ann.AllPeers(), p.Neighbors()...) {
		if !seen[id] {
			seen[id] = true
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return ann
	}
	body, err := encodePlanReq(&planReq{TTL: ttl - 1, Visited: append(visited[:len(visited):len(visited)], p.ID), Query: q})
	if err != nil {
		return ann
	}
	for _, cand := range cands {
		reply, err := p.Net.CallWithin(p.ID, cand, "adhoc.plan", body, p.Engine.DeadlineMS)
		if err != nil {
			continue
		}
		remote, err := pattern.UnmarshalAnnotated(reply)
		if err != nil {
			continue
		}
		ann.Merge(remote)
		if ann.Complete() {
			break
		}
	}
	return ann
}
