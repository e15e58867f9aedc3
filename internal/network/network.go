// Package network provides the simulated P2P transport SQPeer runs on in
// this reproduction: named nodes exchanging typed messages over links with
// configurable latency and bandwidth, with full message/byte accounting,
// node failures and link partitions. The paper's algorithms are
// network-agnostic; this substrate exposes exactly the costs the paper
// argues about (number of messages routed, bytes shipped, per-peer query
// load) while keeping experiments deterministic and laptop-fast: latency
// is accounted, not slept — unless SetRealLatency opts a network into
// sleeping a scaled-down version of each transfer, which wall-clock
// benchmarks use to make overlap between concurrent remote scans
// observable.
package network

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"time"

	"sqpeer/internal/pattern"
	"sqpeer/internal/stats"
)

// NodeID names a network node; it coincides with the peer id.
type NodeID = pattern.PeerID

// Message is one application message.
type Message struct {
	// From and To are the endpoints.
	From, To NodeID
	// Kind is the application message type (e.g. "query.route",
	// "chan.packet"); handlers are registered per kind.
	Kind string
	// Payload is the serialized body.
	Payload []byte
}

// Size returns the accounted wire size of the message.
func (m Message) Size() int { return len(m.Payload) + len(m.Kind) + 16 }

// Handler processes an incoming message and returns a reply payload (for
// Call) or nil (for one-way sends).
type Handler func(Message) ([]byte, error)

// Delivery failure reasons carried by DeliveryError.
const (
	// ReasonNodeDown: an endpoint is failed (crash; may restart).
	ReasonNodeDown = "node-down"
	// ReasonPartition: the link between the endpoints is cut.
	ReasonPartition = "partition"
	// ReasonDropped: the message was lost in transit (injected fault).
	ReasonDropped = "dropped"
	// ReasonDeadline: the delivery's simulated latency exceeded the
	// sender's deadline — how hung or gray-failed peers surface without
	// wedging the sender forever.
	ReasonDeadline = "deadline"
	// ReasonUnknownNode: the destination was never registered.
	ReasonUnknownNode = "unknown-node"
	// ReasonNoHandler: the destination has no handler for the kind.
	ReasonNoHandler = "no-handler"
	// ReasonOverload: the destination admitted too much work already and
	// shed this request (admission control). Transient by construction —
	// the rejection carries a retry-after hint on the logical clock.
	ReasonOverload = "overload"
)

// DeliveryError reports a failed delivery with a failure class, letting
// callers distinguish transient conditions (worth retrying: crashes that
// may heal, partitions, drops, deadline misses) from permanent ones
// (unknown node, missing handler).
type DeliveryError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// Transient reports whether retrying the delivery could succeed.
	Transient bool
	// Detail is the human-readable description.
	Detail string
	// RetryAfterMS is an overload rejection's retry-after hint on the
	// logical clock (ReasonOverload only; 0 when the rejection carries
	// no usable hint). It rides the error over the TCP gateway, where the
	// admission layer's typed error cannot travel.
	RetryAfterMS float64
}

// Error renders the failure.
func (e *DeliveryError) Error() string { return e.Detail }

// Transient reports whether err (or anything it wraps) is a transient
// delivery failure — the retry/backoff gate used by the executor.
func Transient(err error) bool {
	var de *DeliveryError
	return errors.As(err, &de) && de.Transient
}

// Fault is an injector's verdict on one delivery attempt.
type Fault struct {
	// Drop loses the message: the sender sees a transient DeliveryError.
	Drop bool
	// Duplicate delivers the message twice (at-least-once semantics);
	// the second delivery's reply and error are discarded.
	Duplicate bool
	// ExtraDelayMS is added to the delivery's simulated latency (delay
	// spike, gray-failed endpoint responding slowly).
	ExtraDelayMS float64
	// Reason optionally labels a drop (defaults to ReasonDropped).
	Reason string
}

// Injector intercepts deliveries for fault injection. Implementations
// must be safe for concurrent use; self-deliveries are never intercepted.
type Injector interface {
	Intercept(Message) Fault
}

// Counters aggregates traffic accounting; obtained via Network.Counters.
type Counters struct {
	// Messages is the total number of messages delivered (a Call counts
	// its request and its reply).
	Messages int
	// Bytes is the total accounted payload volume.
	Bytes int
	// SimulatedMS is the total accounted transfer time over link
	// latencies and bandwidths (as if messages were sequential). The
	// network sums it in whole nanoseconds, so it does not depend on the
	// order concurrent deliveries were accounted in.
	SimulatedMS float64
	// PerKind counts messages by kind.
	PerKind map[string]int
	// PerNodeReceived counts messages received per node — the per-peer
	// query-load metric of §2.2.
	PerNodeReceived map[NodeID]int
}

// Network is the in-process message fabric. It is safe for concurrent
// use; handlers run on the sender's goroutine (synchronous delivery), so
// handlers must not hold locks that senders also hold.
type Network struct {
	mu       sync.RWMutex
	handlers map[NodeID]map[string]Handler
	links    map[linkKey]stats.Link
	downed   map[NodeID]bool
	cut      map[linkKey]bool
	// realLatency > 0 makes every inter-node delivery sleep
	// link.TransferMS × realLatency milliseconds (see SetRealLatency).
	realLatency float64
	// injector, when set, is consulted on every inter-node delivery.
	injector Injector

	cmu      sync.Mutex
	counters Counters
	// simNS is the logical clock in nanoseconds. Each latency is rounded
	// to a whole nanosecond before it is added, so the integer sum, and
	// with it Counters.SimulatedMS and NowMS, is the same in whatever
	// order parallel dispatch accounts one run's deliveries.
	simNS int64
}

type linkKey struct{ a, b NodeID }

func normKey(a, b NodeID) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a, b}
}

// New returns an empty network.
func New() *Network {
	return &Network{
		handlers: map[NodeID]map[string]Handler{},
		links:    map[linkKey]stats.Link{},
		downed:   map[NodeID]bool{},
		cut:      map[linkKey]bool{},
	}
}

// AddNode registers a node with no handlers yet. Adding an existing node
// is a no-op.
func (n *Network) AddNode(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.handlers[id]; !ok {
		n.handlers[id] = map[string]Handler{}
	}
}

// Handle registers the handler for a message kind at a node.
func (n *Network) Handle(id NodeID, kind string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.handlers[id]; !ok {
		n.handlers[id] = map[string]Handler{}
	}
	n.handlers[id][kind] = h
}

// RemoveNode unregisters a node entirely (it leaves the system).
func (n *Network) RemoveNode(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
	delete(n.downed, id)
}

// Nodes returns the registered node ids, sorted.
func (n *Network) Nodes() []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeID, 0, len(n.handlers))
	for id := range n.handlers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLink configures the link between two nodes (symmetric).
func (n *Network) SetLink(a, b NodeID, l stats.Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[normKey(a, b)] = l
}

// LinkBetween returns the configured link or the default.
func (n *Network) LinkBetween(a, b NodeID) stats.Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if l, ok := n.links[normKey(a, b)]; ok {
		return l
	}
	return stats.DefaultLink
}

// SetRealLatency makes deliveries between distinct nodes sleep their
// accounted transfer time scaled by the given factor (1.0 = real time,
// 0.1 = 10× compressed, 0 = never sleep — the default). Deterministic
// experiments keep it off; wall-clock benchmarks turn it on so that the
// executor's overlap of independent remote scans shows up as elapsed-time
// savings rather than only as accounting.
func (n *Network) SetRealLatency(scale float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.realLatency = scale
}

// SetInjector installs (or, with nil, removes) the fault injector
// consulted on every inter-node delivery. See internal/faults for the
// seeded implementation.
func (n *Network) SetInjector(inj Injector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.injector = inj
}

// delay sleeps the scaled simulated latency of a delivery when real
// latency is enabled. Self-deliveries are always free.
func (n *Network) delay(m Message, latencyMS float64) {
	n.mu.RLock()
	scale := n.realLatency
	n.mu.RUnlock()
	if scale <= 0 || m.From == m.To {
		return
	}
	//lint:allow walltime the SetRealLatency shim exists to sleep scaled simulated latency for wall-clock benches
	time.Sleep(time.Duration(latencyMS * scale * float64(time.Millisecond)))
}

// Fail marks a node down: every message to it errors until Recover.
func (n *Network) Fail(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downed[id] = true
}

// Recover brings a failed node back.
func (n *Network) Recover(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downed, id)
}

// IsDown reports whether a node is failed.
func (n *Network) IsDown(id NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.downed[id]
}

// Partition cuts the link between two nodes; messages across it error.
func (n *Network) Partition(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[normKey(a, b)] = true
}

// Heal restores a cut link.
func (n *Network) Heal(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, normKey(a, b))
}

// lookup resolves the handler for a delivery, or an error describing why
// the message cannot be delivered.
func (n *Network) lookup(m Message) (Handler, stats.Link, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.downed[m.To] {
		return nil, stats.Link{}, &DeliveryError{Reason: ReasonNodeDown, Transient: true,
			Detail: fmt.Sprintf("network: node %s is down", m.To)}
	}
	if n.downed[m.From] {
		return nil, stats.Link{}, &DeliveryError{Reason: ReasonNodeDown, Transient: true,
			Detail: fmt.Sprintf("network: node %s is down", m.From)}
	}
	if n.cut[normKey(m.From, m.To)] {
		return nil, stats.Link{}, &DeliveryError{Reason: ReasonPartition, Transient: true,
			Detail: fmt.Sprintf("network: link %s–%s is partitioned", m.From, m.To)}
	}
	hs, ok := n.handlers[m.To]
	if !ok {
		return nil, stats.Link{}, &DeliveryError{Reason: ReasonUnknownNode,
			Detail: fmt.Sprintf("network: unknown node %s", m.To)}
	}
	h, ok := hs[m.Kind]
	if !ok {
		return nil, stats.Link{}, &DeliveryError{Reason: ReasonNoHandler,
			Detail: fmt.Sprintf("network: node %s has no handler for %q", m.To, m.Kind)}
	}
	link, ok := n.links[normKey(m.From, m.To)]
	if !ok {
		link = stats.DefaultLink
	}
	if m.From == m.To {
		link = stats.Link{LatencyMS: 0, BandwidthKBps: 1 << 30}
	}
	return h, link, nil
}

func (n *Network) account(m Message, latencyMS float64) {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	c := &n.counters
	c.Messages++
	c.Bytes += m.Size()
	n.simNS += nanos(latencyMS)
	if c.PerKind == nil {
		c.PerKind = map[string]int{}
	}
	c.PerKind[m.Kind]++
	if c.PerNodeReceived == nil {
		c.PerNodeReceived = map[NodeID]int{}
	}
	c.PerNodeReceived[m.To]++
}

// deliver is the one-leg delivery core shared by Send and Call: resolve
// the route, consult the injector, enforce the sender's deadline against
// the simulated latency, account, optionally sleep, and invoke the
// handler (twice under a duplication fault). It returns the handler's
// reply.
func (n *Network) deliver(m Message, deadlineMS float64) ([]byte, error) {
	h, link, err := n.lookup(m)
	if err != nil {
		return nil, err
	}
	var f Fault
	if m.From != m.To {
		n.mu.RLock()
		inj := n.injector
		n.mu.RUnlock()
		if inj != nil {
			f = inj.Intercept(m)
		}
	}
	latency := 0.0
	if m.From != m.To {
		latency = link.TransferMS(m.Size()) + f.ExtraDelayMS
	}
	if deadlineMS > 0 && latency > deadlineMS {
		// The sender waited out its deadline on the simulated clock; the
		// message is considered lost to it even if it would eventually
		// arrive. The handler is not invoked.
		n.account(m, deadlineMS)
		return nil, &DeliveryError{Reason: ReasonDeadline, Transient: true,
			Detail: fmt.Sprintf("network: %s(%s→%s) exceeded deadline (%.1fms > %.1fms)",
				m.Kind, m.From, m.To, latency, deadlineMS)}
	}
	if f.Drop {
		// The message went out and vanished; the wire time is spent.
		n.account(m, latency)
		reason := f.Reason
		if reason == "" {
			reason = ReasonDropped
		}
		return nil, &DeliveryError{Reason: reason, Transient: true,
			Detail: fmt.Sprintf("network: %s(%s→%s) lost in transit (%s)", m.Kind, m.From, m.To, reason)}
	}
	n.account(m, latency)
	n.delay(m, latency)
	reply, err := h(m)
	if err != nil {
		return nil, fmt.Errorf("network: %s(%s→%s): %w", m.Kind, m.From, m.To, err)
	}
	if f.Duplicate {
		// At-least-once delivery: the handler runs again on the same
		// message; the duplicate's reply and error are discarded.
		n.account(m, latency)
		_, _ = h(m)
	}
	return reply, nil
}

// Call delivers the message and returns the handler's reply, accounting
// both directions. Handler errors are returned to the caller.
func (n *Network) Call(from, to NodeID, kind string, payload []byte) ([]byte, error) {
	return n.CallWithin(from, to, kind, payload, 0)
}

// CallWithin is Call with a per-leg deadline on the simulated clock
// (0 = none): a leg whose simulated latency exceeds the deadline fails
// with a transient DeliveryError instead of delivering.
func (n *Network) CallWithin(from, to NodeID, kind string, payload []byte, deadlineMS float64) ([]byte, error) {
	reply, err := n.deliver(Message{From: from, To: to, Kind: kind, Payload: payload}, deadlineMS)
	if err != nil {
		return nil, err
	}
	if err := n.replyLeg(Message{From: to, To: from, Kind: kind + ".reply", Payload: reply}, deadlineMS); err != nil {
		return nil, err
	}
	return reply, nil
}

// replyLeg accounts (and possibly faults) the reply half of a Call. No
// handler runs — the caller already holds the reply — but the wire time
// is spent, the injector may lose or delay it, and the caller's deadline
// applies.
func (n *Network) replyLeg(m Message, deadlineMS float64) error {
	if m.From == m.To {
		n.account(m, 0)
		return nil
	}
	n.mu.RLock()
	inj := n.injector
	link, ok := n.links[normKey(m.From, m.To)]
	n.mu.RUnlock()
	if !ok {
		link = stats.DefaultLink
	}
	var f Fault
	if inj != nil {
		f = inj.Intercept(m)
	}
	latency := link.TransferMS(m.Size()) + f.ExtraDelayMS
	if deadlineMS > 0 && latency > deadlineMS {
		n.account(m, deadlineMS)
		return &DeliveryError{Reason: ReasonDeadline, Transient: true,
			Detail: fmt.Sprintf("network: %s(%s→%s) exceeded deadline (%.1fms > %.1fms)",
				m.Kind, m.From, m.To, latency, deadlineMS)}
	}
	n.account(m, latency)
	if f.Drop {
		reason := f.Reason
		if reason == "" {
			reason = ReasonDropped
		}
		return &DeliveryError{Reason: reason, Transient: true,
			Detail: fmt.Sprintf("network: %s(%s→%s) lost in transit (%s)", m.Kind, m.From, m.To, reason)}
	}
	n.delay(m, latency)
	return nil
}

// Send delivers a one-way message, accounting one direction. The
// handler's reply payload is discarded.
func (n *Network) Send(from, to NodeID, kind string, payload []byte) error {
	return n.SendWithin(from, to, kind, payload, 0)
}

// SendWithin is Send with a deadline on the simulated clock (0 = none).
func (n *Network) SendWithin(from, to NodeID, kind string, payload []byte, deadlineMS float64) error {
	_, err := n.deliver(Message{From: from, To: to, Kind: kind, Payload: payload}, deadlineMS)
	return err
}

// Counters returns a snapshot of the traffic counters.
func (n *Network) Counters() Counters {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	snap := n.counters
	snap.SimulatedMS = millis(n.simNS)
	snap.PerKind = cloneMap(n.counters.PerKind)
	snap.PerNodeReceived = cloneMap(n.counters.PerNodeReceived)
	return snap
}

// cloneMap copies m in one step (maps.Clone sizes the copy up front),
// returning an empty map for a nil one so snapshots are always writable.
func cloneMap[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return M{}
	}
	return maps.Clone(m)
}

// NowMS returns the logical clock reading: total simulated transfer
// time accounted so far. Admission token buckets refill against this
// clock so overload experiments stay deterministic — no wall time.
func (n *Network) NowMS() float64 {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	return millis(n.simNS)
}

// AdvanceMS advances the logical clock by ms without sending traffic:
// client think time between requests. Harnesses use it to pace offered
// load against lease-based admission controllers, whose slots expire on
// this clock, so an experiment's overload factor is set by explicit
// deterministic steps rather than by how much transfer latency its
// queries happen to accumulate.
func (n *Network) AdvanceMS(ms float64) {
	if ms <= 0 {
		return
	}
	n.cmu.Lock()
	defer n.cmu.Unlock()
	n.simNS += nanos(ms)
}

// nanos rounds a duration in milliseconds to whole nanoseconds.
func nanos(ms float64) int64 { return int64(math.Round(ms * 1e6)) }

// millis converts the nanosecond clock back to milliseconds.
func millis(ns int64) float64 { return float64(ns) / 1e6 }

// ResetCounters zeroes the traffic counters (between experiment runs).
func (n *Network) ResetCounters() {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	n.counters = Counters{}
	n.simNS = 0
}
