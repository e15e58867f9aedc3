// Peer health tracking: a circuit breaker over the Registry's
// quarantine. The executor reports delivery successes and failures per
// peer; a failure trips the breaker (the peer's advertisements
// are quarantined from routing for a cool-down), and after the cool-down
// the peer re-enters on probation — the next query is its probe, and one
// more failure re-quarantines it with a doubled cool-down. Time is
// logical: Tick is called once per query round (or replan), so cool-downs
// are measured in rounds, keeping experiments deterministic.
package routing

import (
	"sort"
	"sync"

	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// Breaker timing, in ticks. One failure opens the breaker: in a
// simulated network a delivery failure is already the end of a retry
// loop.
const (
	// cooldownTicks is the first quarantine's length.
	cooldownTicks = 2
	// maxCooldownTicks caps the doubling on probation failures.
	maxCooldownTicks = 16
)

// Health state per peer.
const (
	healthy     = iota
	quarantined // breaker open: excluded from routing until cool-down ends
	probation   // breaker half-open: routable; one failure re-quarantines
)

type peerHealth struct {
	state int
	// until is the tick at which a quarantine lifts.
	until int
	// cooldown is the length of the peer's next quarantine (doubles on
	// probation failure, up to maxCooldownTicks).
	cooldown int
	// condemned pins the breaker open past every cool-down: a membership
	// confirm-dead verdict, not a transient delivery failure. Only Revive
	// (a rejoin at a higher incarnation) clears it — a condemned peer is
	// never half-open probed.
	condemned bool
}

// HealthStats counts breaker transitions.
type HealthStats struct {
	// Quarantines counts breaker-open transitions (including forced ones
	// and probation re-trips).
	Quarantines int
	// Reinstates counts cool-down expiries moving a peer to probation.
	Reinstates int
	// Recoveries counts probation successes closing the breaker.
	Recoveries int
	// Condemnations counts membership confirm-dead pins; Revivals counts
	// higher-incarnation rejoins lifting them.
	Condemnations, Revivals int
}

// Health is the circuit-breaker quarantine tracker feeding a Registry.
// It is safe for concurrent use; all Registry mutations go through
// Quarantine/Reinstate, so every state change bumps the registry epoch
// and subsequent Route calls see it without per-call filtering.
type Health struct {
	// Registry is the routing registry the breaker gates.
	Registry *Registry

	// events/peerID feed the unified operations log; set once via
	// SetEventLog during peer wiring, before traffic. Breaker methods
	// collect pending events under h.mu and emit them after release, so
	// the lock order stays one-deep.
	events *obs.EventLog
	peerID string

	mu    sync.Mutex
	now   int
	peers map[pattern.PeerID]*peerHealth
	stats HealthStats
}

// NewHealth returns a tracker over the registry.
func NewHealth(reg *Registry) *Health {
	return &Health{
		Registry: reg,
		peers:    map[pattern.PeerID]*peerHealth{},
	}
}

// SetEventLog wires the operations event log (nil is fine: no events).
// Call during peer construction, before any traffic.
func (h *Health) SetEventLog(log *obs.EventLog, peer string) {
	if h == nil {
		return
	}
	h.events = log
	h.peerID = peer
}

// emit publishes breaker transitions after h.mu is released.
func (h *Health) emit(kind string, target pattern.PeerID, attrs ...obs.Attr) {
	if h.events == nil {
		return
	}
	all := append([]obs.Attr{obs.A("target", string(target))}, attrs...)
	h.events.Emit("health", kind, h.peerID, "", all...)
}

func (h *Health) get(peer pattern.PeerID) *peerHealth {
	ph, ok := h.peers[peer]
	if !ok {
		ph = &peerHealth{cooldown: cooldownTicks}
		h.peers[peer] = ph
	}
	return ph
}

// quarantineLocked opens the breaker for the peer. Callers hold h.mu.
func (h *Health) quarantineLocked(peer pattern.PeerID, ph *peerHealth) {
	ph.state = quarantined
	ph.until = h.now + ph.cooldown
	ph.cooldown = min(ph.cooldown*2, maxCooldownTicks)
	h.stats.Quarantines++
	h.Registry.Quarantine(peer)
}

// ReportFailure records a delivery failure against the peer: the
// breaker opens and the peer is quarantined (for twice as long when it
// was on probation).
func (h *Health) ReportFailure(peer pattern.PeerID) {
	h.mu.Lock()
	ph := h.get(peer)
	if ph.state == quarantined {
		h.mu.Unlock()
		return
	}
	h.quarantineLocked(peer, ph)
	h.mu.Unlock()
	h.emit("quarantine", peer, obs.A("reason", "failures"))
}

// ReportSuccess records a successful delivery: a peer on probation
// recovers fully (breaker closed, cool-down reset).
func (h *Health) ReportSuccess(peer pattern.PeerID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.get(peer)
	if ph.state == quarantined {
		return // stale success from an in-flight dispatch; breaker stays open
	}
	if ph.state == probation {
		ph.state = healthy
		ph.cooldown = cooldownTicks
		h.stats.Recoveries++
	}
}

// QuarantineNow opens the breaker immediately — used when the executor has already classified a failure as
// permanent-for-this-peer (e.g. a replan-triggering *PeerFailure*).
func (h *Health) QuarantineNow(peer pattern.PeerID) {
	h.mu.Lock()
	ph := h.get(peer)
	if ph.state == quarantined {
		h.mu.Unlock()
		return
	}
	h.quarantineLocked(peer, ph)
	h.mu.Unlock()
	h.emit("quarantine", peer, obs.A("reason", "forced"))
}

// Condemn pins the breaker open for a peer the failure detector has
// confirmed dead: quarantined immediately (registry epoch bump, so
// in-flight queries migrate off it) and excluded from the probation
// cycle — no cool-down expiry will half-open probe it. The pin lifts
// only via Revive, i.e. a rejoin observed at a higher incarnation.
func (h *Health) Condemn(peer pattern.PeerID) {
	h.mu.Lock()
	ph := h.get(peer)
	if ph.condemned {
		h.mu.Unlock()
		return
	}
	ph.condemned = true
	h.stats.Condemnations++
	if ph.state != quarantined {
		h.quarantineLocked(peer, ph)
	}
	h.mu.Unlock()
	// Exactly one condemn event per Condemnations increment: the
	// event↔counter reconciliation invariant.
	h.emit("condemn", peer)
}

// Revive lifts a condemnation after the peer rejoined at a higher
// incarnation: breaker closed, cool-down reset, advertisements
// reinstated into routing. A no-op for peers that are not condemned
// (transient quarantines keep their normal probation path).
func (h *Health) Revive(peer pattern.PeerID) {
	h.mu.Lock()
	ph := h.get(peer)
	if !ph.condemned {
		h.mu.Unlock()
		return
	}
	ph.condemned = false
	ph.state = healthy
	ph.cooldown = cooldownTicks
	h.stats.Revivals++
	h.Registry.Reinstate(peer)
	h.mu.Unlock()
	h.emit("revive", peer)
}

// Condemned reports whether the breaker is pinned open for the peer.
func (h *Health) Condemned(peer pattern.PeerID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.peers[peer]
	return ok && ph.condemned
}

// Tick advances logical time one step (one query round). Quarantines
// whose cool-down has expired lift into probation — the peer becomes
// routable again, and its next reported outcome decides whether the
// breaker closes or re-opens for twice as long. Condemned peers never
// lift: their quarantine outlives every cool-down until Revive. Returns
// the peers reinstated this tick, sorted.
func (h *Health) Tick() []pattern.PeerID {
	h.mu.Lock()
	h.now++
	var lifted []pattern.PeerID
	for peer, ph := range h.peers {
		if ph.state == quarantined && !ph.condemned && h.now >= ph.until {
			ph.state = probation
			h.stats.Reinstates++
			h.Registry.Reinstate(peer)
			lifted = append(lifted, peer)
		}
	}
	h.mu.Unlock()
	sort.Slice(lifted, func(i, j int) bool { return lifted[i] < lifted[j] })
	for _, peer := range lifted {
		h.emit("reinstate", peer)
	}
	return lifted
}

// Quarantined returns the peers the breaker currently holds open, sorted.
func (h *Health) Quarantined() []pattern.PeerID {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []pattern.PeerID
	for peer, ph := range h.peers {
		if ph.state == quarantined {
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the transition counters.
func (h *Health) Stats() HealthStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
