// Package channel implements the ubQL-style communication channels SQPeer
// deploys to execute distributed plans (paper §2.4): each channel has a
// root node (the peer that launched the execution, which manages the
// channel under a locally unique number) and a destination node; data packets
// flow from the destination to the root and carry query results,
// "changing plan" information, failure notices, or statistics useful for
// optimization.
package channel

import (
	"fmt"
	"strconv"
	"sync"

	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// PacketType discriminates packet contents. Only the three types below
// are defined; the root refuses a packet of any other type.
type PacketType int

const (
	// Results carries (a batch of) query result rows. The last Results
	// packet of a request's stream is marked Final and carries the
	// stream's trailers (statistics, span record): it is the end-of-stream
	// marker, so a site's happy path costs one packet per frame.
	Results PacketType = iota
	// PlanChange carries the destination's answer to a requested resume
	// offset (PlanChangeInfo).
	PlanChange
	// Failure reports that the destination cannot contribute (peer
	// failure, unresolvable subplan). It is marked Final and ends the
	// stream; its Spans trailer carries the destination's span record
	// when the root shipped a trace context.
	Failure
)

// PlanChangeInfo is the body of a PlanChange packet (paper §2.4: packets
// carry "changing plan" information during run-time adaptation): the
// destination's acknowledgement, or rejection, of the resume offset a
// retried request asked for. Its wire form is AppendPlanChange's.
type PlanChangeInfo struct {
	// Reason is "resume-honored" (the stream starts after Offset rows) or
	// "checkpoint-invalid" (the stream restarts from row 0).
	Reason string
	// Offset is the row checkpoint honored (0 when the stream restarts
	// from scratch).
	Offset int
}

// Frame is a payload that writes itself into a packet body: a sender
// sets Packet.Frame instead of Payload, and the body is sized from
// WireLen and the frame appended after the header (AppendPacket), so
// the frame is written once, into the body the wire carries.
// *rql.Frame implements it.
type Frame interface {
	WireLen() int
	AppendWire(dst []byte) []byte
}

// Packet is one unit of channel traffic. Its wire form is a fixed header
// plus the raw payload (AppendPacket/DecodePacket).
//
// Aliasing rule: a delivered packet's Payload, Gossip, Stats and Spans
// alias the message that carried it. Each send allocates its body once,
// at the exact size, and never reuses it, so a receiver may keep any of
// them as long as it likes; a receiver that mutates one must copy it
// first.
type Packet struct {
	// Channel is the channel's number at its root (Channel.Num).
	Channel uint32
	// Type discriminates Payload.
	Type PacketType
	// Final marks the last packet of the stream answering one request: a
	// flag bit in the wire's type byte. Only a final packet carries the
	// Stats and Spans trailers.
	Final bool
	// Seq orders packets within the channel.
	Seq int
	// Rows is the number of result rows carried (Results packets), used
	// for throughput monitoring.
	Rows int
	// Payload is the raw body: an rql batch frame (binary id columns
	// with either a term dictionary of its own or the slice of the
	// serving base's dictionary the root does not hold yet) for Results
	// packets, failure text for Failure packets, and an AppendPlanChange
	// body for PlanChange packets.
	Payload []byte
	// Frame, when set on the send side, is the payload in place of
	// Payload: the packet body is built around it in one exact-size
	// allocation. A delivered packet carries its payload in Payload.
	Frame Frame
	// Stats is the serving peer's statistics (a stats.MarshalPeerStats
	// body) riding the final Results packet: paper §2.4's "statistics
	// useful for query optimization", at no extra message. The serving
	// peer sends it only when the version the request stated it holds
	// (SubplanRequest.Stamp and StatsGen) is not the current one.
	Stats []byte
	// StatsGen is the generation of the base the Stats body describes; it
	// is on the wire only with a non-empty Stats trailer.
	StatsGen uint64
	// Stamp, on a final packet, is the dictionary stamp (rdf.Base.Stamp)
	// of the serving peer's base, 0 for none: the Stats body's version
	// with StatsGen, and what a root states in its next request to ask
	// for mirror frames (SubplanRequest.Stamp).
	Stamp uint64
	// Spans is the destination's serialized span subtree (obs.SpanRecord)
	// riding the final packet, Results or Failure, when the root shipped
	// a trace context.
	Spans []byte
	// Gossip is an opaque membership-gossip blob piggybacked on the
	// packet (Manager.GossipSource/OnGossip): liveness updates ride the
	// result traffic that is flowing anyway, so detection spreads at
	// data-plane rates without extra messages. Dropped with the packet
	// when the root drops a replay — gossip merges are monotone, so
	// losing a replayed copy is harmless.
	Gossip []byte
	// WireBytes is the accounted size of the message that delivered the
	// packet (network.Message.Size), set by the root's manager and not on
	// the wire: the executor prices the reply leg with exactly what the
	// network charged.
	WireBytes int
}

// payloadLen is the size of p's payload on the wire: its Frame's, if it
// has one.
func (p *Packet) payloadLen() int {
	if p.Frame != nil {
		return p.Frame.WireLen()
	}
	return len(p.Payload)
}

// Channel is the root-side view of one deployed channel: its number,
// its sequence floor and the callback its accepted packets go to.
type Channel struct {
	// Num is the channel's number at its root; the requests that ship
	// work on the channel name it, and its packets carry it back.
	Num uint32
	// TraceID is the deploying query's trace id ("" when untraced). The
	// root knows which span dispatched each channel, so packets carry no
	// trace context: the channel's plan-change and dedupe events take
	// the trace id from here.
	TraceID string

	mu sync.Mutex
	// floor is the contiguous watermark: every sequence number <= floor
	// has been accepted exactly once, and only floor+1 is accepted next.
	floor int
	// onPacket, if set, receives every accepted packet.
	onPacket func(Packet)
}

// Watermark returns the channel's contiguous sequence watermark: every
// packet numbered <= Watermark() has been accepted exactly once. This is
// the checkpoint the plan-change protocol resumes from.
func (c *Channel) Watermark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor
}

// Manager is one peer's channel endpoint: it deploys channels as root,
// accepts requests on them as destination, dispatches inbound packets to
// per-channel callbacks, and ships packets upstream when acting as a
// destination.
//
// A channel costs no message of its own (paper §2.4: the root deploys
// the channel together with the subplan it ships). The root deploys it
// locally (Deploy); the exec.subplan request that carries the work
// names its number, and the destination accepts it on
// receipt (Accept) for as long as it handles that request; the last
// packet, marked Final, ends the stream; and the root retires the
// channel locally (Close).
type Manager struct {
	self pattern.PeerID
	net  *network.Network

	// DeadlineMS, when positive, bounds every upstream packet delivery on
	// the simulated clock: a leg slower than this fails with a transient
	// error instead of blocking the sender (see network.SendWithin).
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
	nextNum  uint32
	channels map[uint32]*Channel // channels rooted here, by number
	stats    ManagerStats
}

// ManagerStats is the manager's packet accounting, published to the obs
// registry via CollectObs.
type ManagerStats struct {
	// PacketsSent counts upstream packets shipped as destination;
	// PayloadBytesSent sums their payload sizes, making wire-format
	// savings (JSON rows vs binary batches) visible in the registry.
	PacketsSent      int
	PayloadBytesSent int
	// PacketsAccepted / PacketsDuplicate count root-side packet
	// arrivals split by the dedupe verdict (a packet for a channel the
	// root has retired counts as a duplicate).
	PacketsAccepted  int
	PacketsDuplicate int
	// ChannelsOpened counts root-side deploys; ChannelsAccepted dest-side
	// accepts, one per request received (the request is the open);
	// ChannelsClosed root-side retirements.
	ChannelsOpened   int
	ChannelsAccepted int
	ChannelsClosed   int
	// GossipPiggybacked counts upstream packets that carried a membership
	// gossip blob.
	GossipPiggybacked int
	// TenantAccepts splits dest-side accepts by the request's tenant
	// header (untagged requests count under ""), the per-tenant
	// serving-load view the fairness metrics draw on.
	TenantAccepts map[string]int
}

// NewManager wires a manager for peer self into the network, registering
// the chan.packet handler.
func NewManager(self pattern.PeerID, net *network.Network) *Manager {
	m := &Manager{
		self:     self,
		net:      net,
		channels: map[uint32]*Channel{},
	}
	net.AddNode(self)
	net.Handle(self, "chan.packet", m.handlePacket)
	return m
}

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

// Deploy allocates a channel rooted at this peer and registers it,
// sending nothing: the first request shipped on it names its number.
// traceID is the deploying query's trace id ("" when untraced).
// onPacket, if non-nil, receives every packet the destination sends
// back.
func (m *Manager) Deploy(traceID string, onPacket func(Packet)) *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextNum++
	ch := &Channel{Num: m.nextNum, TraceID: traceID, onPacket: onPacket}
	m.channels[ch.Num] = ch
	m.stats.ChannelsOpened++
	return ch
}

// Close retires a channel at its root. It sends nothing: the destination
// holds state for a channel only while it handles a request on it, and
// delivery is synchronous, so no destination state outlives the request
// that ended. A packet that still arrives for a retired number is
// dropped as a duplicate.
func (m *Manager) Close(ch *Channel) {
	m.mu.Lock()
	delete(m.channels, ch.Num)
	m.stats.ChannelsClosed++
	m.mu.Unlock()
}

// Inbound is the destination's record of a remote root's channel for
// the duration of one request on it: where its packets go and the last
// sequence number sent. The handler that accepted the request owns it
// and drops it when it returns; it is not safe for concurrent sends.
type Inbound struct {
	m    *Manager
	root pattern.PeerID
	num  uint32
	seq  int
}

// Accept creates the destination's record of channel num rooted at root
// on receipt of a request naming it; the request handler calls it once
// admission has passed, so a rejected request leaves no record. seqBase
// is the root channel's watermark when the request was shipped: this
// request's packets are numbered from seqBase+1, continuing the channel's
// sequence across the requests it carries, so a replayed request's
// packets land at or below the root's floor and are dropped there.
// tenant is the request's QoS header, counted in TenantAccepts.
func (m *Manager) Accept(root pattern.PeerID, num uint32, seqBase int, tenant string) *Inbound {
	m.mu.Lock()
	m.stats.ChannelsAccepted++
	if m.stats.TenantAccepts == nil {
		m.stats.TenantAccepts = map[string]int{}
	}
	m.stats.TenantAccepts[tenant]++
	m.mu.Unlock()
	return &Inbound{m: m, root: root, num: num, seq: seqBase}
}

// Send ships p upstream to the channel's root. Its channel number,
// sequence number and gossip are stamped here; the sequence number is
// assigned before the wire, so a duplicated delivery carries the same
// Seq and the root can suppress it (at-least-once transport,
// exactly-once packets). The body is built here, outside the manager's
// lock, with p's Frame (if any) encoded straight into it.
func (in *Inbound) Send(p Packet) error {
	m := in.m
	in.seq++
	p.Channel, p.Seq = in.num, in.seq
	if m.GossipSource != nil {
		p.Gossip = m.GossipSource()
	}
	payloadLen := p.payloadLen()
	body := appendPacket(nil, &p, payloadLen)
	m.mu.Lock()
	m.stats.PacketsSent++
	m.stats.PayloadBytesSent += payloadLen
	if p.Gossip != nil {
		m.stats.GossipPiggybacked++
	}
	m.mu.Unlock()
	if err := m.net.SendWithin(m.self, in.root, "chan.packet", body, m.DeadlineMS); err != nil {
		return fmt.Errorf("channel: send to root %s: %w", in.root, err)
	}
	return nil
}

// handlePacket is the root's acceptance rule. A packet numbered at or
// below its channel's floor is a replay: dropped and counted. The one
// numbered floor+1 is accepted: the floor advances and the packet goes
// to the channel's callback. Any other number, or a type outside the
// three defined, is refused with an error to the sender and leaves the
// floor where it was. A sender stamps its numbers densely and stops at
// its first failed send, so the accepted packets are always a contiguous
// prefix of what it sent: the property resume offsets rely on.
func (m *Manager) handlePacket(msg network.Message) ([]byte, error) {
	pkt, err := DecodePacket(msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("channel: bad packet: %w", err)
	}
	if pkt.Type > Failure {
		return nil, fmt.Errorf("channel: %s: packet %d has undefined type %d", ID(m.self, pkt.Channel), pkt.Seq, pkt.Type)
	}
	m.mu.Lock()
	ch := m.channels[pkt.Channel]
	m.mu.Unlock()
	if ch == nil {
		// The root has retired this channel: whatever still arrives for it
		// is a late replay of a stream that already ended.
		return m.dropDuplicate(msg.From, &pkt, "")
	}
	ch.mu.Lock()
	if floor := ch.floor; pkt.Seq != floor+1 {
		ch.mu.Unlock()
		if pkt.Seq <= floor {
			return m.dropDuplicate(msg.From, &pkt, ch.TraceID)
		}
		return nil, fmt.Errorf("channel: %s: packet %d out of sequence (watermark %d)", ID(m.self, pkt.Channel), pkt.Seq, floor)
	}
	ch.floor++
	ch.mu.Unlock()
	pkt.WireBytes = msg.Size()
	m.mu.Lock()
	m.stats.PacketsAccepted++
	onGossip := m.OnGossip
	m.mu.Unlock()
	if len(pkt.Gossip) > 0 && onGossip != nil {
		onGossip(msg.From, pkt.Gossip)
	}
	if pkt.Type == PlanChange {
		m.Events.Emit("channel", "plan-change", string(m.self), ch.TraceID,
			obs.A("channel", ID(m.self, ch.Num)), obs.A("from", string(msg.From)))
	}
	if ch.onPacket != nil {
		ch.onPacket(pkt)
	}
	return nil, nil
}

// dropDuplicate drops a replayed packet (at-least-once transport): the
// destination stamped its sequence number once, or the root has already
// retired its channel. It is never an error, because the sender would
// take that for a failed delivery and retry. trace is the channel's
// trace id, "" for a retired channel.
func (m *Manager) dropDuplicate(from pattern.PeerID, pkt *Packet, trace string) ([]byte, error) {
	m.mu.Lock()
	m.stats.PacketsDuplicate++
	m.mu.Unlock()
	// One "dedupe" event per PacketsDuplicate increment — the
	// event↔counter reconciliation invariant for this plane.
	m.Events.Emit("channel", "dedupe", string(m.self), trace,
		obs.A("channel", ID(m.self, pkt.Channel)), obs.A("seq", strconv.Itoa(pkt.Seq)),
		obs.A("from", string(from)))
	return nil, nil
}
