// Package channel implements the ubQL-style communication channels SQPeer
// deploys to execute distributed plans (paper §2.4): each channel has a
// root node (the peer that launched the execution, which manages the
// channel under a locally unique id) and a destination node; data packets
// flow from the destination to the root and carry query results,
// "changing plan" information, failure notices, or statistics useful for
// optimization.
package channel

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// PacketType discriminates channel packet contents.
type PacketType int

const (
	// Results carries (a batch of) query result rows.
	Results PacketType = iota
	// PlanChange carries a replacement (sub)plan during run-time
	// adaptation.
	PlanChange
	// Failure reports that the destination cannot contribute (peer
	// failure, unresolvable subplan).
	Failure
	// Stats carries statistics useful for query optimization.
	Stats
	// Done marks the end of the destination's result stream.
	Done
	// TraceSpans carries the destination's serialized execution-span
	// subtree (obs.SpanRecord) back to the root — a statistics-class
	// packet in the paper's taxonomy (§2.4), shipped only when the root
	// propagated a trace ID in the subplan request.
	TraceSpans
)

// String names the packet type.
func (t PacketType) String() string {
	switch t {
	case Results:
		return "results"
	case PlanChange:
		return "plan-change"
	case Failure:
		return "failure"
	case Stats:
		return "stats"
	case Done:
		return "done"
	case TraceSpans:
		return "trace-spans"
	default:
		return fmt.Sprintf("packet(%d)", int(t))
	}
}

// PlanChangeInfo is the wire body of a PlanChange packet (paper §2.4:
// packets carry "changing plan" information during run-time adaptation).
// Both directions use it: a root announces that a subplan is migrating or
// resuming from a checkpoint, and a destination acknowledges — or rejects
// — a requested resume offset.
type PlanChangeInfo struct {
	// Reason classifies the change: "migrate", "resume-honored",
	// "checkpoint-invalid", "hole-filled".
	Reason string `json:"reason"`
	// Offset is the row checkpoint involved (rows already delivered for
	// resumes; 0 when the stream restarts from scratch).
	Offset int `json:"offset,omitempty"`
	// Subplan, when present, is the serialized replacement subplan.
	Subplan []byte `json:"subplan,omitempty"`
}

// Packet is one unit of channel traffic.
type Packet struct {
	// ChannelID identifies the channel at its root.
	ChannelID string `json:"channelId"`
	// Type discriminates Payload.
	Type PacketType `json:"type"`
	// Seq orders packets within the channel.
	Seq int `json:"seq"`
	// Rows is the number of result rows carried (Results packets), used
	// for throughput monitoring.
	Rows int `json:"rows"`
	// Payload is the serialized body: an rql batch frame (length-prefixed
	// binary columns with a per-frame term dictionary) for Results
	// packets, a JSON document for every control packet.
	Payload []byte `json:"payload"`
	// TraceID and SpanID propagate the root's trace context: when the
	// root ships a subplan with a trace ID, the destination binds it to
	// the channel (Manager.BindTrace) and every upstream packet carries
	// it, so remote execution is attributable to the root span that
	// dispatched it.
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
	// Gossip is an opaque membership-gossip blob piggybacked on the
	// packet (Manager.GossipSource/OnGossip): liveness updates ride the
	// result traffic that is flowing anyway, so detection spreads at
	// data-plane rates without extra messages. Dropped with the packet
	// when the dedupe window rejects a replay — gossip merges are
	// monotone, so losing a replayed copy is harmless.
	Gossip []byte `json:"gossip,omitempty"`
}

// seenWindow bounds the out-of-order acceptance window: packets this far
// behind the highest accepted sequence number are treated as replays. The
// destination assigns sequence numbers densely, so a gap wider than this
// can only come from a duplicated delivery of something long since
// processed — and bounding the window keeps the seen-set small.
const seenWindow = 4096

// Channel is the root-side view of one deployed channel.
type Channel struct {
	// ID is the root-locally unique channel id.
	ID string
	// Root manages the channel; Dest is the remote peer.
	Root, Dest pattern.PeerID
	// Tenant and Priority are the QoS headers the channel was opened
	// under (empty/zero for untagged executions).
	Tenant   string
	Priority int

	mu sync.Mutex
	// floor is the contiguous watermark: every sequence number <= floor
	// has been accepted exactly once. seen holds accepted numbers above
	// the floor (out-of-order arrivals waiting for the gap to fill).
	floor  int
	seen   map[int]bool
	closed bool
	failed bool
	// rowsReceived counts result rows for throughput observation.
	rowsReceived int
}

// Failed reports whether the channel observed a failure (destination down
// or Failure packet received).
func (c *Channel) Failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// Closed reports whether the channel has been closed by its root.
func (c *Channel) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// RowsReceived returns the number of result rows that arrived so far.
func (c *Channel) RowsReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rowsReceived
}

// Watermark returns the channel's contiguous sequence watermark: every
// packet numbered <= Watermark() has been accepted exactly once. This is
// the checkpoint the plan-change protocol resumes from.
func (c *Channel) Watermark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor
}

// accept decides whether a packet sequence number is new (true) or a
// replayed duplicate (false), maintaining the bounded seen-window that
// distinguishes late arrivals from replays. forced counts how many
// floor slots the bounded window pushed past without a contiguous fill
// (observability: a nonzero forced rate means the window is too small
// for the reordering in play). Callers hold c.mu.
func (c *Channel) accept(seq int) (ok bool, forced int) {
	if seq <= c.floor || c.seen[seq] {
		return false, 0 // replay of an already-accepted packet
	}
	if c.seen == nil {
		c.seen = map[int]bool{}
	}
	c.seen[seq] = true
	// Advance the contiguous watermark over any gap that just filled.
	for c.seen[c.floor+1] {
		c.floor++
		delete(c.seen, c.floor)
	}
	// Bound the window: force the floor forward so it never trails the
	// newest accepted number by more than seenWindow. Anything below the
	// new floor is deemed replayed from then on.
	for seq-c.floor > seenWindow {
		c.floor++
		forced++
		delete(c.seen, c.floor)
	}
	return true, forced
}

// openReq is the wire body of a channel-open request. Tenant and
// Priority are the QoS headers of the execution deploying the channel:
// the destination accounts accepted channels per tenant, and serving
// peers apply the same admission class the root charged at its facade.
type openReq struct {
	ChannelID string         `json:"channelId"`
	Root      pattern.PeerID `json:"root"`
	Tenant    string         `json:"tenant,omitempty"`
	Priority  int            `json:"priority,omitempty"`
}

// Manager is one peer's channel endpoint: it opens channels as root,
// accepts them as destination, dispatches inbound packets to per-channel
// callbacks, and ships packets upstream when acting as a destination.
type Manager struct {
	self pattern.PeerID
	net  *network.Network

	// DeadlineMS, when positive, bounds every channel delivery (opens and
	// packets) on the simulated clock: a leg slower than this fails with a
	// transient error instead of blocking the sender (see
	// network.SendWithin).
	DeadlineMS float64

	// GossipSource, when set, is polled before each upstream packet; a
	// non-nil blob is piggybacked as Packet.Gossip. OnGossip, when set,
	// receives the blob (and the sending peer) on the root side of every
	// accepted packet that carries one. Both must be wired before the
	// manager carries traffic; they are invoked outside manager locks.
	GossipSource func() []byte
	OnGossip     func(from pattern.PeerID, blob []byte)

	// Events, when set, receives channel-plane operations events
	// (dedupe drops, plan-change arrivals). Wired once before traffic,
	// like GossipSource; a nil log is inert.
	Events *obs.EventLog

	mu       sync.Mutex
	nextID   int
	channels map[string]*Channel                  // channels rooted here
	onPacket map[string]func(Packet)              // root-side packet callbacks
	inbound  map[string]pattern.PeerID            // channelID -> root (dest side)
	outSeq   map[string]int                       // channelID -> last sent seq (dest side)
	trace    map[string]traceBinding              // channelID -> trace context (dest side)
	onOpen   func(id string, root pattern.PeerID) // dest-side accept hook
	stats    ManagerStats
}

// traceBinding is the dest-side trace context stamped onto every
// upstream packet of a channel.
type traceBinding struct {
	traceID, spanID string
}

// ManagerStats is the manager's packet accounting: the seq-window and
// dedupe counters that used to live only as per-channel state, published
// to the obs registry via CollectObs.
type ManagerStats struct {
	// PacketsSent counts upstream packets shipped as destination;
	// PayloadBytesSent sums their payload sizes, making wire-format
	// savings (JSON rows vs binary batches) visible in the registry.
	PacketsSent      int
	PayloadBytesSent int
	// PacketsAccepted / PacketsDuplicate count root-side packet
	// arrivals split by the dedupe verdict; WindowForced counts floor
	// slots the bounded seen-window skipped without a contiguous fill.
	PacketsAccepted  int
	PacketsDuplicate int
	WindowForced     int
	// ChannelsOpened counts root-side opens; ChannelsAccepted dest-side
	// accepts; ChannelsClosed root-side closes.
	ChannelsOpened   int
	ChannelsAccepted int
	ChannelsClosed   int
	// GossipPiggybacked counts upstream packets that carried a membership
	// gossip blob.
	GossipPiggybacked int
	// TenantAccepts splits dest-side accepts by the open request's
	// tenant header (untagged opens count under ""), the per-tenant
	// serving-load view the fairness metrics draw on.
	TenantAccepts map[string]int
}

// NewManager wires a manager for peer self into the network, registering
// the chan.* message handlers.
func NewManager(self pattern.PeerID, net *network.Network) *Manager {
	m := &Manager{
		self:     self,
		net:      net,
		channels: map[string]*Channel{},
		onPacket: map[string]func(Packet){},
		inbound:  map[string]pattern.PeerID{},
		outSeq:   map[string]int{},
		trace:    map[string]traceBinding{},
	}
	net.AddNode(self)
	net.Handle(self, "chan.open", m.handleOpen)
	net.Handle(self, "chan.packet", m.handlePacket)
	net.Handle(self, "chan.close", m.handleClose)
	return m
}

// Self returns the peer this manager belongs to.
func (m *Manager) Self() pattern.PeerID { return m.self }

// Stats returns a copy of the manager's packet accounting.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.stats
	if m.stats.TenantAccepts != nil {
		snap.TenantAccepts = make(map[string]int, len(m.stats.TenantAccepts))
		for t, n := range m.stats.TenantAccepts {
			snap.TenantAccepts[t] = n
		}
	}
	return snap
}

// BindTrace attaches a trace context to an inbound channel (this peer is
// the destination): every subsequent upstream packet carries the trace
// and span IDs. Unbinding happens automatically at channel close.
func (m *Manager) BindTrace(channelID, traceID, spanID string) {
	if traceID == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trace[channelID] = traceBinding{traceID: traceID, spanID: spanID}
}

// OnOpen registers a destination-side hook invoked when a remote root
// opens a channel to this peer.
func (m *Manager) OnOpen(fn func(id string, root pattern.PeerID)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onOpen = fn
}

// Open deploys a channel from this peer (the root) to dest. onPacket, if
// non-nil, receives every packet the destination sends back.
func (m *Manager) Open(dest pattern.PeerID, onPacket func(Packet)) (*Channel, error) {
	return m.OpenAs(dest, "", 0, onPacket)
}

// OpenAs is Open with QoS headers: the deploying execution's tenant and
// priority ride the open request so the destination can account and
// admit per class before any subplan work arrives.
func (m *Manager) OpenAs(dest pattern.PeerID, tenant string, priority int, onPacket func(Packet)) (*Channel, error) {
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("%s#%d", m.self, m.nextID)
	m.mu.Unlock()

	body, err := json.Marshal(openReq{ChannelID: id, Root: m.self, Tenant: tenant, Priority: priority})
	if err != nil {
		return nil, fmt.Errorf("channel: marshal open: %w", err)
	}
	if _, err := m.net.CallWithin(m.self, dest, "chan.open", body, m.DeadlineMS); err != nil {
		return nil, fmt.Errorf("channel: open to %s: %w", dest, err)
	}
	ch := &Channel{ID: id, Root: m.self, Dest: dest, Tenant: tenant, Priority: priority}
	m.mu.Lock()
	m.channels[id] = ch
	if onPacket != nil {
		m.onPacket[id] = onPacket
	}
	m.stats.ChannelsOpened++
	m.mu.Unlock()
	return ch, nil
}

// Close tears the channel down, notifying the destination (best effort:
// a dead destination is fine). The notification is deadline-bounded like
// every other channel delivery — a gray destination must not be able to
// hang the cleanup path past DeadlineMS.
func (m *Manager) Close(ch *Channel) {
	ch.mu.Lock()
	ch.closed = true
	ch.mu.Unlock()
	body, _ := json.Marshal(openReq{ChannelID: ch.ID, Root: m.self})
	_ = m.net.SendWithin(m.self, ch.Dest, "chan.close", body, m.DeadlineMS) // best effort
	m.mu.Lock()
	delete(m.channels, ch.ID)
	delete(m.onPacket, ch.ID)
	m.stats.ChannelsClosed++
	m.mu.Unlock()
}

// MarkFailed records a channel failure at the root (e.g. the open
// succeeded but a later send to the destination errored).
func (m *Manager) MarkFailed(ch *Channel) {
	ch.mu.Lock()
	ch.failed = true
	ch.mu.Unlock()
}

// Channel returns the root-side channel with the given id.
func (m *Manager) Channel(id string) (*Channel, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.channels[id]
	return ch, ok
}

// OpenChannels returns ids of channels rooted at this peer, sorted.
func (m *Manager) OpenChannels() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.channels))
	for id := range m.channels {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SendToRoot ships a packet upstream on an inbound channel (this peer is
// the destination). The packet's sequence number is assigned here, before
// the wire, so a duplicated delivery carries the same Seq and the root
// can suppress it (at-least-once transport, exactly-once packets). The
// send is synchronous — the simulated transport delivers before
// returning — so a pooled payload buffer may be recycled as soon as this
// returns.
func (m *Manager) SendToRoot(channelID string, typ PacketType, rows int, payload []byte) error {
	m.mu.Lock()
	root, ok := m.inbound[channelID]
	var seq int
	var tb traceBinding
	if ok {
		m.outSeq[channelID]++
		seq = m.outSeq[channelID]
		tb = m.trace[channelID]
		m.stats.PacketsSent++
		m.stats.PayloadBytesSent += len(payload)
	}
	gossipSrc := m.GossipSource
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("channel: %s: unknown inbound channel %q", m.self, channelID)
	}
	var gossip []byte
	if gossipSrc != nil {
		if gossip = gossipSrc(); gossip != nil {
			m.mu.Lock()
			m.stats.GossipPiggybacked++
			m.mu.Unlock()
		}
	}
	pkt := Packet{ChannelID: channelID, Type: typ, Seq: seq, Rows: rows, Payload: payload,
		TraceID: tb.traceID, SpanID: tb.spanID, Gossip: gossip}
	body, err := json.Marshal(pkt)
	if err != nil {
		return fmt.Errorf("channel: marshal packet: %w", err)
	}
	if err := m.net.SendWithin(m.self, root, "chan.packet", body, m.DeadlineMS); err != nil {
		return fmt.Errorf("channel: send to root %s: %w", root, err)
	}
	return nil
}

func (m *Manager) handleOpen(msg network.Message) ([]byte, error) {
	var req openReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return nil, fmt.Errorf("channel: bad open request: %w", err)
	}
	m.mu.Lock()
	m.inbound[req.ChannelID] = req.Root
	m.stats.ChannelsAccepted++
	if m.stats.TenantAccepts == nil {
		m.stats.TenantAccepts = map[string]int{}
	}
	m.stats.TenantAccepts[req.Tenant]++
	hook := m.onOpen
	m.mu.Unlock()
	if hook != nil {
		hook(req.ChannelID, req.Root)
	}
	return []byte("ok"), nil
}

func (m *Manager) handlePacket(msg network.Message) ([]byte, error) {
	var pkt Packet
	if err := json.Unmarshal(msg.Payload, &pkt); err != nil {
		return nil, fmt.Errorf("channel: bad packet: %w", err)
	}
	m.mu.Lock()
	ch := m.channels[pkt.ChannelID]
	cb := m.onPacket[pkt.ChannelID]
	m.mu.Unlock()
	if ch == nil {
		return nil, fmt.Errorf("channel: %s: packet for unknown channel %q", m.self, pkt.ChannelID)
	}
	ch.mu.Lock()
	ok, forced := ch.accept(pkt.Seq)
	if !ok {
		// Duplicate delivery (at-least-once transport): the destination
		// stamped this sequence number once; drop the replay. A late
		// arrival reordered by a delay spike is NOT a duplicate — accept
		// tells them apart via the bounded seen-window.
		ch.mu.Unlock()
		m.mu.Lock()
		m.stats.PacketsDuplicate++
		m.mu.Unlock()
		// One "dedupe" event per PacketsDuplicate increment — the
		// event↔counter reconciliation invariant for this plane.
		m.Events.Emit("channel", "dedupe", string(m.self), pkt.TraceID,
			obs.A("channel", pkt.ChannelID), obs.A("seq", strconv.Itoa(pkt.Seq)),
			obs.A("from", string(msg.From)))
		return nil, nil
	}
	if pkt.Type == Results {
		ch.rowsReceived += pkt.Rows
	}
	if pkt.Type == Failure {
		ch.failed = true
	}
	ch.mu.Unlock()
	m.mu.Lock()
	m.stats.PacketsAccepted++
	m.stats.WindowForced += forced
	onGossip := m.OnGossip
	m.mu.Unlock()
	if len(pkt.Gossip) > 0 && onGossip != nil {
		onGossip(msg.From, pkt.Gossip)
	}
	if pkt.Type == PlanChange {
		m.Events.Emit("channel", "plan-change", string(m.self), pkt.TraceID,
			obs.A("channel", pkt.ChannelID), obs.A("from", string(msg.From)))
	}
	if cb != nil {
		cb(pkt)
	}
	return nil, nil
}

func (m *Manager) handleClose(msg network.Message) ([]byte, error) {
	var req openReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return nil, fmt.Errorf("channel: bad close request: %w", err)
	}
	m.mu.Lock()
	delete(m.inbound, req.ChannelID)
	delete(m.outSeq, req.ChannelID)
	delete(m.trace, req.ChannelID)
	m.mu.Unlock()
	return nil, nil
}
