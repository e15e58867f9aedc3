package overlay

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"sqpeer/internal/channel"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
	"sqpeer/internal/wire"
)

// DefaultTTL bounds how many hops a partial plan may be forwarded in the
// ad-hoc architecture before giving up.
const DefaultTTL = 6

// Adhoc is a self-adaptive SON (paper §3.2): peers know only their
// physical neighbors at join time, pull active-schemas to form a semantic
// neighborhood, and answer queries by interleaving routing and processing
// — partial plans with holes travel peer-to-peer until some peer can
// complete and execute them.
type Adhoc struct {
	// Net is the shared transport.
	Net *network.Network
	// Schema is the community schema of this SON.
	Schema *rdf.Schema
	// DeadlineMS bounds neighbor discovery and plan forwarding on the
	// simulated clock (0 = none).
	DeadlineMS float64

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
	p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: a.Schema, Base: base}, a.Net)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.peers[id] = p
	a.mu.Unlock()
	a.Net.Handle(id, "adhoc.plan", a.planHandler(p))
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
			reply, err := a.Net.CallWithin(id, f, "adv.neighbors", nil, a.DeadlineMS)
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

// planHandler registers p's side of the interleaved routing/processing
// protocol: on receiving a partial plan, merge local routing knowledge;
// if the plan completes, execute it here and stream the answer upstream;
// otherwise forward it onward.
func (a *Adhoc) planHandler(p *peer.Peer) network.Handler {
	return func(msg network.Message) ([]byte, error) {
		req, err := decodePlanReq(msg.Payload)
		if err != nil {
			return nil, fmt.Errorf("overlay: %s: bad plan request: %w", p.ID, err)
		}
		partial, err := plan.Unmarshal(req.Plan)
		if err != nil {
			return nil, err
		}
		// The request deploys the forwarding peer's channel here. It
		// carries one request, so its packets are numbered from 1.
		in := p.Channels.Accept(msg.From, req.Channel, 0, "")
		rows, rerr := a.resolveAndRun(p, partial, req.Visited, req.TTL)
		// Rows too large for one frame fail here, not as a malformed
		// packet at the forwarding peer.
		var frame *rql.Frame
		if rerr == nil {
			frame, rerr = rql.NewFrame(rql.BatchOf(rows))
		}
		if rerr != nil {
			if serr := in.Send(channel.Packet{Type: channel.Failure, Final: true, Payload: []byte(rerr.Error())}); serr != nil {
				return nil, serr
			}
			return []byte("failed"), nil
		}
		// One final Results packet: the rows and the end of the stream.
		if err := in.Send(channel.Packet{Type: channel.Results, Final: true, Rows: rows.Len(), Frame: frame}); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}
}

// planReq is a forwarded partial plan (DESIGN §12, "Wire format"): a
// format byte, the forwarding peer's channel number (fixed 4 bytes, as
// in the channel envelopes), the remaining TTL, the peers already
// visited (a count, then each id length-prefixed), then the plan.Marshal
// bytes raw. The forwarding peer is the message's sender, so the request
// does not carry it.
type planReq struct {
	Channel uint32
	TTL     int
	Visited []pattern.PeerID
	// Plan is the plan.Marshal body; on decode it aliases the message.
	Plan []byte
}

const planReqFormat byte = 1

func appendPlanReq(dst []byte, req *planReq) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, planReqFormat), req.Channel)
	dst = wire.AppendUvarint(dst, req.TTL)
	dst = wire.AppendUvarint(dst, len(req.Visited))
	for _, id := range req.Visited {
		dst = wire.AppendStr(dst, string(id))
	}
	return append(dst, req.Plan...)
}

func decodePlanReq(b []byte) (planReq, error) {
	r := wire.NewReader(b)
	r.Format(planReqFormat)
	req := planReq{Channel: r.U32(), TTL: r.Uv()}
	if n := r.Count(1); n > 0 {
		req.Visited = make([]pattern.PeerID, n)
		for i := range req.Visited {
			req.Visited[i] = pattern.PeerID(r.Str())
		}
	}
	req.Plan = r.Rest()
	return req, r.Err()
}

// Query answers an RQL query at a peer using the ad-hoc discipline
// (§3.2): route with local knowledge; execute if the plan is complete;
// otherwise forward the partial plan along the SON until some peer
// completes it, with the answer flowing back through the deployed
// channels.
func (a *Adhoc) Query(at pattern.PeerID, rqlText string) (*rql.ResultSet, error) {
	a.mu.Lock()
	p, ok := a.peers[at]
	a.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("overlay: unknown peer %s", at)
	}
	c, err := p.Compile(rqlText)
	if err != nil {
		return nil, err
	}
	ann := p.Router.Route(c.Pattern)
	partial, err := plan.Generate(ann)
	if err != nil {
		return nil, err
	}
	// Defer projections to the initiator: a remote completing peer must
	// return full rows so WHERE filters on non-projected variables still
	// see their bindings.
	partial.Query = &pattern.QueryPattern{
		SchemaName: c.Pattern.SchemaName,
		Patterns:   c.Pattern.Patterns,
	}
	rows, err := a.resolveAndRun(p, partial, []pattern.PeerID{}, DefaultTTL)
	if err != nil {
		return nil, err
	}
	filtered, err := rql.ApplyFilters(rows, c.Query.Where)
	if err != nil {
		return nil, err
	}
	return filtered.Project(c.Pattern.Projections).Limit(c.Query.Limit), nil
}

// resolveAndRun is one step of interleaved routing and processing at peer
// p: fill holes with p's knowledge; execute when complete; otherwise
// forward to candidate peers (plan participants and physical neighbors
// not yet visited) until one returns a complete answer.
func (a *Adhoc) resolveAndRun(p *peer.Peer, partial *plan.Plan, visited []pattern.PeerID, ttl int) (*rql.ResultSet, error) {
	ann := p.Router.Route(partial.Query)
	filled, _ := plan.FillHoles(partial, ann)
	if !plan.HasHoles(filled.Root) {
		rows, err := p.Engine.Execute(filled)
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("overlay: %s: TTL exhausted with unresolved holes %v", p.ID, holeIDs(filled))
	}
	seen := map[pattern.PeerID]bool{p.ID: true}
	for _, v := range visited {
		seen[v] = true
	}
	nextVisited := append(append([]pattern.PeerID{}, visited...), p.ID)

	var lastErr error
	tried := 0
	for _, cand := range a.forwardCandidates(p, filled, seen) {
		tried++
		rows, err := a.forwardTo(p, cand, filled, nextVisited, ttl-1)
		if err != nil {
			lastErr = err
			continue
		}
		return rows, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("overlay: %s: no peer to forward partial plan to (holes %v)", p.ID, holeIDs(filled))
	}
	return nil, fmt.Errorf("overlay: partial plan unresolved after %d forwards: %w", tried, lastErr)
}

// forwardCandidates orders the peers worth forwarding a partial plan to:
// first the peers already participating in the plan (they answer part of
// the query, as in Figure 7 where P1 forwards to P2 and P3), then the
// physical neighbors.
func (a *Adhoc) forwardCandidates(p *peer.Peer, filled *plan.Plan, seen map[pattern.PeerID]bool) []pattern.PeerID {
	var out []pattern.PeerID
	add := func(id pattern.PeerID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range plan.Peers(filled.Root) {
		add(id)
	}
	for _, id := range p.Neighbors() {
		add(id)
	}
	return out
}

// forwardTo ships the partial plan to the candidate over a channel the
// request itself deploys, and waits for its verdict (synchronous delivery
// resolves the whole chain within the Send).
func (a *Adhoc) forwardTo(p *peer.Peer, cand pattern.PeerID, filled *plan.Plan, visited []pattern.PeerID, ttl int) (*rql.ResultSet, error) {
	collector := &adhocCollector{}
	ch := p.Channels.Deploy("", collector.onPacket)
	defer p.Channels.Close(ch)
	data, err := plan.Marshal(filled)
	if err != nil {
		return nil, err
	}
	body := appendPlanReq(nil, &planReq{Channel: ch.Num, TTL: ttl, Visited: visited, Plan: data})
	if err := p.Net.SendWithin(p.ID, cand, "adhoc.plan", body, a.DeadlineMS); err != nil {
		return nil, fmt.Errorf("overlay: forward to %s failed: %w", cand, err)
	}
	if collector.err != nil {
		return nil, collector.err
	}
	if !collector.done {
		return nil, fmt.Errorf("overlay: %s returned no verdict", cand)
	}
	if collector.rows == nil {
		collector.rows = rql.NewResultSet()
	}
	return collector.rows, nil
}

type adhocCollector struct {
	mu   sync.Mutex
	rows *rql.ResultSet
	err  error
	done bool
}

func (c *adhocCollector) onPacket(pkt channel.Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch pkt.Type {
	case channel.Results:
		b, err := rql.DecodeBatch(pkt.Payload)
		if err != nil {
			c.err = fmt.Errorf("overlay: bad results packet: %w", err)
			return
		}
		rs := b.ResultSet()
		if c.rows == nil {
			c.rows = rs
		} else {
			c.rows = c.rows.Union(rs)
		}
		c.done = c.done || pkt.Final
	case channel.Failure:
		c.err = fmt.Errorf("overlay: remote failure: %s", pkt.Payload)
	}
}

func holeIDs(p *plan.Plan) []string {
	holes := plan.Holes(p.Root)
	out := make([]string, len(holes))
	for i, h := range holes {
		out[i] = h.Patterns[0].ID
	}
	return out
}
