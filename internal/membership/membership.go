// Package membership implements decentralized membership for SQPeer: a
// deterministic SWIM-style failure detector (direct ping, indirect
// ping-req, suspicion with a bounded timeout, confirm-dead) combined
// with incarnation numbers so a falsely suspected peer refutes and a
// restarted peer rejoins, plus an anti-entropy layer (antientropy.go)
// that reconciles advertisement state peer to peer. Together they
// realize the paper's premise that "each peer base can join and leave
// the network at will" without the omniscient in-process oracle the
// experiment harness used to script: each peer maintains its own
// routing view, fed by membership events, and converges with every
// other view through periodic digest exchange.
//
// Determinism is the design constraint everything bends around. Time
// is logical — Tick is called once per protocol round by the owner
// (an experiment harness round, a serving loop's pacing), never a wall
// clock — and every random choice (probe ring shuffle, indirect-probe
// relays, sync partner) flows from one seeded RNG per detector, so a
// whole cluster's membership history is a pure function of (seed, tick
// sequence, network behavior). Fault injection on the transport is
// therefore reproducible all the way into suspicion timelines.
//
// The state machine per remote member:
//
//	alive --ping timeout (direct + indirect)--> suspect
//	suspect --suspectTicks elapse--> dead  (OnDead: quarantine + epoch bump)
//	suspect --alive@higher-incarnation--> alive  (refutation)
//	dead --alive@higher-incarnation--> alive  (rejoin; OnRejoin)
//	dead --suspect@higher-incarnation--> suspect  (also OnRejoin: no
//	  longer confirmed dead, so the quarantine lifts; a fresh expiry
//	  re-confirms)
//
// Only a member itself bumps its own incarnation: when it learns it is
// suspected or presumed dead (via gossip, or via the prober's view
// piggybacked on a ping), it increments and gossips a fresher alive —
// the SWIM refutation rule. Dead members are not abandoned: every
// deadRetryTicks the detector probes one confirmed-dead member, carrying
// its "you are dead at incarnation i" verdict; a partitioned-but-alive
// peer answers by rejoining at i+1, which is how both sides of a healed
// partition rediscover each other without any scripted rejoin.
package membership

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// Status is a member's liveness verdict in a local view. The order is
// the same-incarnation gossip precedence: dead overrides suspect
// overrides alive, and only a higher incarnation revives.
type Status int

const (
	// StatusAlive: the member answers probes (or nobody disputes it).
	StatusAlive Status = iota
	// StatusSuspect: probes failed; the member has suspectTicks to refute.
	StatusSuspect
	// StatusDead: the suspicion timed out; routing quarantines the member
	// until it rejoins at a higher incarnation.
	StatusDead
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Entry is one member's state as known by one detector — the unit both
// gossip piggybacks and anti-entropy syncs exchange. Gossip updates are
// status-only (AdvEpoch 0, no blob); anti-entropy entries additionally
// carry the advertisement blob at its epoch.
type Entry struct {
	// Peer is the member.
	Peer pattern.PeerID `json:"peer"`
	// Status is the liveness verdict.
	Status Status `json:"status"`
	// Incarnation versions the liveness verdict; only Peer itself bumps it.
	Incarnation uint64 `json:"incarnation"`
	// AdvEpoch versions the advertisement blob; only Peer itself bumps it
	// (monotonic across incarnations). 0 means "no blob carried".
	AdvEpoch uint64 `json:"advEpoch,omitempty"`
	// Adv is the opaque advertisement blob (the owner's serialized
	// self-description); membership never inspects it.
	Adv json.RawMessage `json:"adv,omitempty"`
}

// member is the detector's mutable record for one remote peer.
type member struct {
	entry Entry
	// suspectSince is the tick the current suspicion started.
	suspectSince int
}

// Options configures a Detector.
type Options struct {
	// Seed feeds the detector's RNG (mixed with the peer id, so each
	// detector in a cluster draws an independent deterministic stream).
	Seed int64
}

// Protocol constants.
const (
	// rpcDeadlineMS bounds every membership RPC on the simulated clock:
	// a gray or partitioned peer fails a probe fast instead of wedging
	// the prober.
	rpcDeadlineMS = 200
	// suspectTicks is how many ticks a suspicion lasts before the member
	// is confirmed dead.
	suspectTicks = 2
	// indirectProbes is how many relays a failed direct ping escalates
	// to — the SWIM ping-req round that keeps one lossy link from
	// condemning a healthy peer.
	indirectProbes = 2
	// deadRetryTicks: every this many ticks the detector additionally
	// probes one confirmed-dead member — the partition-heal path.
	deadRetryTicks = 2
	// maxPiggyback bounds the gossip updates attached to any one message.
	maxPiggyback = 8
	// gossipTTL is how many times each update is re-shipped before it
	// ages out of the piggyback queue.
	gossipTTL = 6
)

// Stats counts detector activity; snapshot via Stats(), published via
// CollectObs (obs.go).
type Stats struct {
	// Ticks counts protocol rounds driven.
	Ticks int
	// Pings/PingAcks/PingFails count direct probes and their outcomes.
	Pings, PingAcks, PingFails int
	// IndirectReqs/IndirectAcks count ping-req escalations.
	IndirectReqs, IndirectAcks int
	// Suspects counts suspicion onsets (local probe verdicts and adopted
	// gossip alike); Refutations counts self-refutations (this detector
	// learned it was suspected or presumed dead and bumped its
	// incarnation).
	Suspects, Refutations int
	// ConfirmedDead counts members confirmed dead in this view; Rejoins
	// counts dead members revived by a higher incarnation; SelfRejoins
	// counts local Rejoin calls.
	ConfirmedDead, Rejoins, SelfRejoins int
	// DeadRetries counts heal probes of confirmed-dead members.
	DeadRetries int
	// SyncCalls counts anti-entropy rounds initiated; SyncServed rounds
	// answered; SyncPushes follow-up pushes shipped.
	SyncCalls, SyncServed, SyncPushes int
	// EntriesApplied counts adopted status components; AdvApplied counts
	// adopted advertisement blobs.
	EntriesApplied, AdvApplied int
	// GossipSent counts piggybacked updates shipped (all carriers).
	GossipSent int
}

// event is a deferred callback: detector callbacks always fire after
// d.mu is released, so ApplyAdv/OnDead handlers may take routing or
// health locks without ordering against the membership mutex.
type event struct {
	kind string // "adv", "suspect", "dead", "rejoin"
	peer pattern.PeerID
	adv  json.RawMessage
}

// Detector is one peer's membership view and protocol endpoint. Wire it
// with New, set the callbacks, then drive Tick once per protocol round.
// All exported methods are safe for concurrent use; callbacks are
// invoked outside the detector's mutex.
type Detector struct {
	self pattern.PeerID
	net  *network.Network

	// ApplyAdv, when set, receives every advertisement blob adopted as
	// fresher than the one held (including the first one seen).
	ApplyAdv func(peer pattern.PeerID, adv []byte)
	// OnSuspect, OnDead, OnRejoin, when set, receive liveness
	// transitions in this view: suspicion onset, confirm-dead, and a
	// dead member reviving at a higher incarnation.
	OnSuspect func(peer pattern.PeerID)
	OnDead    func(peer pattern.PeerID)
	OnRejoin  func(peer pattern.PeerID)

	// Events, when set (before traffic, like the callbacks above), feeds
	// every liveness transition into the unified operations log. Emission
	// happens in fire, outside the detector's mutex, and maps one-to-one
	// onto the stats counters: suspect↔Suspects, confirm-dead↔
	// ConfirmedDead, rejoin↔Rejoins — the reconciliation invariant.
	Events *obs.EventLog

	mu      sync.Mutex
	rng     *rand.Rand
	tick    int
	members map[pattern.PeerID]*member
	// probeRing is the shuffled round-robin of probe targets; rebuilt
	// (and reshuffled) when exhausted — SWIM's bounded-staleness probe
	// order.
	probeRing []pattern.PeerID
	ringPos   int
	// deadPos rotates the dead-retry probe over confirmed-dead members.
	deadPos int
	// queue is the pending-gossip buffer: newest update per peer, each
	// re-shipped at most gossipTTL times.
	queue []queued
	stats Stats
}

type queued struct {
	e   Entry
	ttl int
}

// New wires a detector for peer self into the network, registering the
// member.* handlers. The detector starts knowing only itself (alive,
// incarnation 1); Join or Learn seeds it with contacts.
func New(self pattern.PeerID, net *network.Network, opts Options) *Detector {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", self)
	d := &Detector{
		self:    self,
		net:     net,
		rng:     gen.NewRNG(opts.Seed ^ int64(h.Sum64())),
		members: map[pattern.PeerID]*member{},
	}
	d.members[self] = &member{entry: Entry{Peer: self, Status: StatusAlive, Incarnation: 1}}
	net.AddNode(self)
	net.Handle(self, "member.ping", d.handlePing)
	net.Handle(self, "member.pingreq", d.handlePingReq)
	net.Handle(self, "member.sync", d.handleSync)
	net.Handle(self, "member.push", d.handlePush)
	return d
}

// Self returns the peer this detector belongs to.
func (d *Detector) Self() pattern.PeerID { return d.self }

// Stats returns a snapshot of the activity counters.
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetLocalAdvertisement installs (or refreshes) this peer's own
// advertisement blob, bumping its advertisement epoch. The blob spreads
// to every other view through anti-entropy.
func (d *Detector) SetLocalAdvertisement(blob []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	me := d.members[d.self]
	me.entry.AdvEpoch++
	me.entry.Adv = append(json.RawMessage(nil), blob...)
}

// Rejoin announces a restart: the local incarnation bumps past any
// verdict the cluster may hold about the previous life, and the fresh
// alive gossips out with the detector's next messages. Harnesses call
// it when a crashed node's process comes back.
func (d *Detector) Rejoin() {
	d.mu.Lock()
	defer d.mu.Unlock()
	me := d.members[d.self]
	me.entry.Incarnation++
	me.entry.Status = StatusAlive
	d.stats.SelfRejoins++
	d.enqueueLocked(statusOnly(me.entry))
}

// Join seeds the detector with a bootstrap contact and runs one
// anti-entropy round against it, the join handshake of §3.1 ("when a
// peer connects ... it forwards its corresponding active-schema")
// generalized to full view exchange.
func (d *Detector) Join(contact pattern.PeerID) error {
	d.mu.Lock()
	if _, ok := d.members[contact]; !ok && contact != d.self {
		d.members[contact] = &member{entry: Entry{Peer: contact, Status: StatusAlive}}
	}
	d.mu.Unlock()
	return d.SyncWith(contact)
}

// StatusOf reports the detector's verdict on a peer (itself included).
func (d *Detector) StatusOf(peer pattern.PeerID) (Status, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[peer]
	if !ok {
		return StatusAlive, false
	}
	return m.entry.Status, true
}

// Incarnation returns the incarnation the verdict on peer is held at.
func (d *Detector) Incarnation(peer pattern.PeerID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[peer]; ok {
		return m.entry.Incarnation
	}
	return 0
}

// Members returns every known member's entry (blobs omitted), sorted by
// peer — the view a harness compares against ground truth.
func (d *Detector) Members() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Entry, 0, len(d.members))
	for _, m := range d.members {
		e := m.entry
		e.Adv = nil
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// statusOnly strips an entry to its gossip form.
func statusOnly(e Entry) Entry {
	return Entry{Peer: e.Peer, Status: e.Status, Incarnation: e.Incarnation}
}

// enqueueLocked queues an update for piggybacking, newest-per-peer.
// Callers hold d.mu.
func (d *Detector) enqueueLocked(e Entry) {
	for i := range d.queue {
		if d.queue[i].e.Peer == e.Peer {
			d.queue[i] = queued{e: e, ttl: gossipTTL}
			return
		}
	}
	d.queue = append(d.queue, queued{e: e, ttl: gossipTTL})
}

// takePiggybackLocked returns up to max queued updates, charging one TTL
// each and dropping the spent. Callers hold d.mu.
func (d *Detector) takePiggybackLocked(max int) []Entry {
	var out []Entry
	keep := d.queue[:0]
	for _, q := range d.queue {
		if len(out) < max {
			out = append(out, q.e)
			q.ttl--
			d.stats.GossipSent++
		}
		if q.ttl > 0 {
			keep = append(keep, q)
		}
	}
	d.queue = keep
	return out
}

// Tick drives one protocol round: expire suspicions, probe the next
// ring target (escalating to indirect probes on failure), occasionally
// re-probe one dead member (partition healing), and run one
// anti-entropy exchange with a random alive partner.
func (d *Detector) Tick() {
	d.mu.Lock()
	d.tick++
	d.stats.Ticks++
	var events []event
	d.expireSuspectsLocked(&events)
	target := d.nextProbeLocked()
	var deadTarget pattern.PeerID
	if d.tick%deadRetryTicks == 0 {
		deadTarget = d.nextDeadLocked()
	}
	partner := d.pickSyncPartnerLocked()
	d.mu.Unlock()
	d.fire(events)

	if target != "" {
		d.probe(target)
	}
	if deadTarget != "" {
		d.mu.Lock()
		d.stats.DeadRetries++
		d.mu.Unlock()
		d.probe(deadTarget)
	}
	if partner != "" {
		_ = d.SyncWith(partner) // a failed sync retries next tick
	}
}

// expireSuspectsLocked confirms dead every suspicion older than
// suspectTicks. Callers hold d.mu.
func (d *Detector) expireSuspectsLocked(events *[]event) {
	ids := make([]pattern.PeerID, 0, len(d.members))
	for id := range d.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := d.members[id]
		if m.entry.Status == StatusSuspect && d.tick-m.suspectSince >= suspectTicks {
			m.entry.Status = StatusDead
			d.stats.ConfirmedDead++
			d.enqueueLocked(statusOnly(m.entry))
			*events = append(*events, event{kind: "dead", peer: id})
		}
	}
}

// nextProbeLocked returns the next probe target from the shuffled ring,
// rebuilding the ring from the current alive/suspect membership when it
// is exhausted. Callers hold d.mu.
func (d *Detector) nextProbeLocked() pattern.PeerID {
	for pass := 0; pass < 2; pass++ {
		for d.ringPos < len(d.probeRing) {
			c := d.probeRing[d.ringPos]
			d.ringPos++
			if m, ok := d.members[c]; ok && m.entry.Status != StatusDead {
				return c
			}
		}
		// Rebuild: alive + suspect members, sorted then shuffled so the
		// probe order is deterministic but not id-biased.
		ids := make([]pattern.PeerID, 0, len(d.members))
		for id, m := range d.members {
			if id != d.self && m.entry.Status != StatusDead {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		d.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		d.probeRing, d.ringPos = ids, 0
		if len(ids) == 0 {
			return ""
		}
	}
	return ""
}

// nextDeadLocked rotates over the confirmed-dead members. Callers hold
// d.mu.
func (d *Detector) nextDeadLocked() pattern.PeerID {
	var dead []pattern.PeerID
	for id, m := range d.members {
		if id != d.self && m.entry.Status == StatusDead {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 {
		return ""
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	d.deadPos++
	return dead[d.deadPos%len(dead)]
}

// pickSyncPartnerLocked picks one alive member for this tick's
// anti-entropy exchange. Callers hold d.mu.
func (d *Detector) pickSyncPartnerLocked() pattern.PeerID {
	var alive []pattern.PeerID
	for id, m := range d.members {
		if id != d.self && m.entry.Status == StatusAlive {
			alive = append(alive, id)
		}
	}
	if len(alive) == 0 {
		return ""
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	return alive[d.rng.Intn(len(alive))]
}

// viewOfLocked returns this detector's entry for a peer in gossip form —
// the "I think you are X at incarnation i" verdict a probe carries so
// its target can refute or rejoin. Callers hold d.mu.
func (d *Detector) viewOfLocked(peer pattern.PeerID) (Entry, bool) {
	if m, ok := d.members[peer]; ok {
		return statusOnly(m.entry), true
	}
	return Entry{}, false
}

// probe runs the SWIM probe cycle against one target: direct ping, then
// indirectProbes ping-req relays, then suspicion.
func (d *Detector) probe(target pattern.PeerID) {
	if d.ping(target) {
		return
	}
	relays := d.pickRelays(target)
	for _, r := range relays {
		if d.pingReq(r, target) {
			return
		}
	}
	d.suspect(target)
}

// pickRelays selects indirectProbes alive members (excluding self and
// the target) as ping-req relays.
func (d *Detector) pickRelays(target pattern.PeerID) []pattern.PeerID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var alive []pattern.PeerID
	for id, m := range d.members {
		if id != d.self && id != target && m.entry.Status == StatusAlive {
			alive = append(alive, id)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	d.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	if len(alive) > indirectProbes {
		alive = alive[:indirectProbes]
	}
	return alive
}

// pingMsg is the wire body of member.ping; the updates carry gossip
// plus the sender's verdict on the target itself.
type pingMsg struct {
	From    pattern.PeerID `json:"from"`
	Updates []Entry        `json:"updates,omitempty"`
}

// ackMsg is the ping reply: the target's own entry plus piggyback.
type ackMsg struct {
	Updates []Entry `json:"updates,omitempty"`
}

// pingReqMsg asks a relay to ping Target on the sender's behalf.
type pingReqMsg struct {
	From    pattern.PeerID `json:"from"`
	Target  pattern.PeerID `json:"target"`
	Updates []Entry        `json:"updates,omitempty"`
}

// pingReqAck relays the target's ack (or the failure).
type pingReqAck struct {
	Ack     bool    `json:"ack"`
	Updates []Entry `json:"updates,omitempty"`
}

// ping sends one direct probe and merges the ack. Returns whether the
// target answered.
func (d *Detector) ping(target pattern.PeerID) bool {
	d.mu.Lock()
	d.stats.Pings++
	updates := d.takePiggybackLocked(maxPiggyback)
	if v, ok := d.viewOfLocked(target); ok {
		updates = append(updates, v)
	}
	d.mu.Unlock()
	body, err := json.Marshal(pingMsg{From: d.self, Updates: updates})
	if err != nil {
		return false
	}
	reply, err := d.net.CallWithin(d.self, target, "member.ping", body, rpcDeadlineMS)
	if err != nil {
		d.mu.Lock()
		d.stats.PingFails++
		d.mu.Unlock()
		return false
	}
	var ack ackMsg
	if err := json.Unmarshal(reply, &ack); err != nil {
		return false
	}
	d.mu.Lock()
	d.stats.PingAcks++
	d.mu.Unlock()
	d.Merge(ack.Updates)
	return true
}

// pingReq asks relay to probe target. Returns whether the relay reached
// it.
func (d *Detector) pingReq(relay, target pattern.PeerID) bool {
	d.mu.Lock()
	d.stats.IndirectReqs++
	updates := d.takePiggybackLocked(maxPiggyback)
	if v, ok := d.viewOfLocked(target); ok {
		updates = append(updates, v)
	}
	d.mu.Unlock()
	body, err := json.Marshal(pingReqMsg{From: d.self, Target: target, Updates: updates})
	if err != nil {
		return false
	}
	reply, err := d.net.CallWithin(d.self, relay, "member.pingreq", body, rpcDeadlineMS)
	if err != nil {
		return false
	}
	var ack pingReqAck
	if err := json.Unmarshal(reply, &ack); err != nil || !ack.Ack {
		return false
	}
	d.mu.Lock()
	d.stats.IndirectAcks++
	d.mu.Unlock()
	d.Merge(ack.Updates)
	return true
}

// suspect marks an unresponsive alive member suspected, starting its
// refutation window.
func (d *Detector) suspect(target pattern.PeerID) {
	d.mu.Lock()
	var events []event
	if m, ok := d.members[target]; ok && m.entry.Status == StatusAlive {
		m.entry.Status = StatusSuspect
		m.suspectSince = d.tick
		d.stats.Suspects++
		d.enqueueLocked(statusOnly(m.entry))
		events = append(events, event{kind: "suspect", peer: target})
	}
	d.mu.Unlock()
	d.fire(events)
}

// handlePing answers a direct probe: merge the prober's updates
// (refuting any verdict about this peer itself) and ack with the
// current self entry plus piggyback.
func (d *Detector) handlePing(msg network.Message) ([]byte, error) {
	var pm pingMsg
	if err := json.Unmarshal(msg.Payload, &pm); err != nil {
		return nil, fmt.Errorf("membership %s: bad ping: %w", d.self, err)
	}
	d.mu.Lock()
	var events []event
	d.mergeLocked(pm.Updates, &events)
	updates := d.takePiggybackLocked(maxPiggyback)
	updates = append(updates, statusOnly(d.members[d.self].entry))
	d.mu.Unlock()
	d.fire(events)
	return json.Marshal(ackMsg{Updates: updates})
}

// handlePingReq relays a probe: merge the requester's updates, ping the
// target with this relay's own view, and report the outcome.
func (d *Detector) handlePingReq(msg network.Message) ([]byte, error) {
	var rm pingReqMsg
	if err := json.Unmarshal(msg.Payload, &rm); err != nil {
		return nil, fmt.Errorf("membership %s: bad ping-req: %w", d.self, err)
	}
	d.Merge(rm.Updates)
	d.mu.Lock()
	updates := d.takePiggybackLocked(maxPiggyback)
	if v, ok := d.viewOfLocked(rm.Target); ok {
		updates = append(updates, v)
	}
	d.mu.Unlock()
	body, err := json.Marshal(pingMsg{From: d.self, Updates: updates})
	if err != nil {
		return json.Marshal(pingReqAck{Ack: false})
	}
	reply, err := d.net.CallWithin(d.self, rm.Target, "member.ping", body, rpcDeadlineMS)
	if err != nil {
		return json.Marshal(pingReqAck{Ack: false})
	}
	var ack ackMsg
	if err := json.Unmarshal(reply, &ack); err != nil {
		return json.Marshal(pingReqAck{Ack: false})
	}
	d.Merge(ack.Updates)
	return json.Marshal(pingReqAck{Ack: true, Updates: ack.Updates})
}

// Merge folds remote entries into the local view, firing callbacks for
// every transition they cause. Safe for concurrent use.
func (d *Detector) Merge(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	d.mu.Lock()
	var events []event
	d.mergeLocked(entries, &events)
	d.mu.Unlock()
	d.fire(events)
}

// mergeLocked is the merge core. The status component merges by
// (incarnation, status-precedence); the advertisement component merges
// by advertisement epoch; both monotone, so merge order never matters —
// any gossip/sync delivery order converges to the same view. Callers
// hold d.mu.
func (d *Detector) mergeLocked(entries []Entry, events *[]event) {
	for _, e := range entries {
		if e.Peer == "" {
			continue
		}
		if e.Peer == d.self {
			d.refuteLocked(e)
			continue
		}
		m, ok := d.members[e.Peer]
		if !ok {
			m = &member{entry: Entry{Peer: e.Peer}}
			d.members[e.Peer] = m
		}
		cur := &m.entry
		if e.Incarnation > cur.Incarnation ||
			(e.Incarnation == cur.Incarnation && e.Status > cur.Status) {
			old, oldKnown := cur.Status, ok
			cur.Incarnation = e.Incarnation
			cur.Status = e.Status
			d.stats.EntriesApplied++
			switch {
			case e.Status == StatusSuspect:
				m.suspectSince = d.tick
				d.stats.Suspects++
				// A dead member resurfacing under suspicion (a higher
				// incarnation someone else already doubts) is still a
				// rejoin: it is no longer confirmed dead, so routing must
				// lift the quarantine. If the new suspicion expires, the
				// confirm-dead path re-quarantines.
				if oldKnown && old == StatusDead {
					d.stats.Rejoins++
					*events = append(*events, event{kind: "rejoin", peer: e.Peer})
				}
				*events = append(*events, event{kind: "suspect", peer: e.Peer})
			case e.Status == StatusDead && (!oldKnown || old != StatusDead):
				d.stats.ConfirmedDead++
				*events = append(*events, event{kind: "dead", peer: e.Peer})
			case e.Status == StatusAlive && oldKnown && old == StatusDead:
				d.stats.Rejoins++
				*events = append(*events, event{kind: "rejoin", peer: e.Peer})
			}
			d.enqueueLocked(statusOnly(*cur))
		}
		if e.AdvEpoch > cur.AdvEpoch && len(e.Adv) > 0 {
			cur.AdvEpoch = e.AdvEpoch
			cur.Adv = append(json.RawMessage(nil), e.Adv...)
			d.stats.AdvApplied++
			*events = append(*events, event{kind: "adv", peer: e.Peer, adv: cur.Adv})
		}
	}
}

// refuteLocked handles a gossip verdict about this peer itself: any
// non-alive claim at our incarnation (or beyond) is refuted by bumping
// past it — the SWIM rule that keeps a falsely suspected peer routable.
// Callers hold d.mu.
func (d *Detector) refuteLocked(e Entry) {
	me := d.members[d.self]
	if e.Status == StatusAlive || e.Incarnation < me.entry.Incarnation {
		return
	}
	me.entry.Incarnation = e.Incarnation + 1
	me.entry.Status = StatusAlive
	d.stats.Refutations++
	d.enqueueLocked(statusOnly(me.entry))
}

// fire invokes the deferred callbacks, outside d.mu.
func (d *Detector) fire(events []event) {
	for _, ev := range events {
		switch ev.kind {
		case "adv":
			if d.ApplyAdv != nil {
				d.ApplyAdv(ev.peer, ev.adv)
			}
			d.Events.Emit("membership", "adv", string(d.self), "",
				obs.A("target", string(ev.peer)))
		case "suspect":
			if d.OnSuspect != nil {
				d.OnSuspect(ev.peer)
			}
			d.Events.Emit("membership", "suspect", string(d.self), "",
				obs.A("target", string(ev.peer)))
		case "dead":
			if d.OnDead != nil {
				d.OnDead(ev.peer)
			}
			d.Events.Emit("membership", "confirm-dead", string(d.self), "",
				obs.A("target", string(ev.peer)))
		case "rejoin":
			if d.OnRejoin != nil {
				d.OnRejoin(ev.peer)
			}
			d.Events.Emit("membership", "rejoin", string(d.self), "",
				obs.A("target", string(ev.peer)))
		}
	}
}

// Piggyback returns up to maxPiggyback pending gossip updates as an
// opaque blob for carriage on an existing packet (the channel layer's
// gossip field), or nil when nothing is pending. HandleGossip is its
// receiving half.
func (d *Detector) Piggyback() []byte {
	d.mu.Lock()
	updates := d.takePiggybackLocked(maxPiggyback)
	d.mu.Unlock()
	if len(updates) == 0 {
		return nil
	}
	blob, err := json.Marshal(updates)
	if err != nil {
		return nil
	}
	return blob
}

// HandleGossip merges a blob produced by another detector's Piggyback.
func (d *Detector) HandleGossip(from pattern.PeerID, blob []byte) {
	if len(blob) == 0 {
		return
	}
	var updates []Entry
	if err := json.Unmarshal(blob, &updates); err != nil {
		return
	}
	d.Merge(updates)
}
