// Package admission implements multi-tenant admission control for a
// SQPeer peer: per-tenant token buckets refilled on the logical clock,
// priority classes with concurrency watermarks, and typed overload
// rejections that carry a retry-after hint. The controller never blocks
// and never touches wall time — callers either get in or get a
// transient OverloadError telling them when to come back, which keeps
// overload experiments byte-identical across same-seed reruns.
//
// Two admission scopes exist. AdmitQuery guards the peer facade (a
// user query entering the system): it charges the tenant's token
// bucket and checks the occupancy watermark for the query's priority.
// AdmitWork guards the subplan handler (work arriving from a remote
// root): it checks occupancy only — the root already paid the token,
// and double-charging would bill one query once per dispatched leaf.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sqpeer/internal/network"
	"sqpeer/internal/obs"
)

// Priority is a query's admission class. Under saturation, lower
// classes are rejected and shed first; High work is never shed.
type Priority int

const (
	// Low is best-effort work: first rejected, first shed.
	Low Priority = iota
	// Normal is the default interactive class.
	Normal
	// High is latency-critical work admitted up to full capacity and
	// never shed.
	High

	numPriorities = 3
)

// String renders the class name (used in spans, metrics and errors).
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Normal:
		return "normal"
	case High:
		return "high"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// QoS bundles the tenant and priority a query runs under. It flows
// from peer.Config through exec into subplan request headers so every
// peer touched by a distributed plan applies the same class.
type QoS struct {
	// Tenant names the fairness/accounting unit ("" = untagged).
	Tenant string
	// Priority is the admission class.
	Priority Priority
}

// watermarks scale MaxConcurrent per priority: work of class p is
// admitted while occupancy < watermarks[p]*MaxConcurrent, and in-flight
// work of class p is shed once occupancy exceeds that line. High's is 1,
// so High is never shed.
var watermarks = [numPriorities]float64{Low: 0.5, Normal: 0.8, High: 1}

// retryHintMS is the retry-after suggested on occupancy rejections when
// no lease expiry is available to derive one.
const retryHintMS = 10

// Config parameterizes a Controller.
type Config struct {
	// RatePerSec is each tenant bucket's refill rate in admissions per
	// simulated second. 0 disables rate limiting (occupancy only).
	RatePerSec float64
	// Burst is the bucket capacity (initial and maximum tokens).
	// Defaults to 1 when RatePerSec > 0.
	Burst float64
	// MaxConcurrent caps simultaneously admitted work at this peer.
	// 0 disables occupancy limiting (rate only). Each priority class
	// sees it scaled by its watermark.
	MaxConcurrent int
	// HoldMS, when > 0, makes every admission occupy its slot for a
	// fixed lease on the logical clock instead of until Done — the
	// deterministic mode used by the overload experiment, where queries
	// are driven sequentially but must still saturate the pool. When 0,
	// occupancy is the explicit Admit/Done in-flight count.
	HoldMS float64
	// Clock reads the logical clock in milliseconds (typically
	// network.Network.NowMS or a harness round counter). Nil means a
	// clock stuck at 0: buckets never refill past their initial Burst.
	Clock func() float64
	// Disabled turns the controller into a pass-through that still
	// counts admissions (the ablation mode): everything is admitted,
	// nothing is rejected or shed.
	Disabled bool
}

// tenantStats accumulates per-tenant accounting for fairness metrics.
type tenantStats struct {
	Admitted     int
	RejectedRate int
	RejectedLoad int
	Shed         int
}

// Controller is a peer's admission controller. All methods are safe
// for concurrent use and none of them blocks: rejection is an error,
// not a queue.
type Controller struct {
	cfg Config

	// events/peerID feed the unified operations log; set once via
	// SetEventLog during peer wiring, before traffic (same plain-field
	// discipline as the channel manager's GossipSource). Emission always
	// happens after the controller's mutex is released, so the lock
	// order stays one-deep.
	events *obs.EventLog
	peerID string

	mu       sync.Mutex
	buckets  map[string]*bucket
	tenants  map[string]*tenantStats
	leases   []float64 // slot-occupancy expiries, ascending (HoldMS mode)
	inflight int       // explicit Admit/Done occupancy (HoldMS == 0)
}

// bucket is one tenant's token bucket on the logical clock.
type bucket struct {
	tokens float64
	last   float64 // clock reading at the last refill
}

// NewController builds a controller; zero-valued Config fields take
// the documented defaults.
func NewController(cfg Config) *Controller {
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = func() float64 { return 0 }
	}
	return &Controller{
		cfg:     cfg,
		buckets: map[string]*bucket{},
		tenants: map[string]*tenantStats{},
	}
}

// SetEventLog wires the operations event log (nil is fine: no events).
// Call during peer construction, before any admission traffic.
func (c *Controller) SetEventLog(log *obs.EventLog, peer string) {
	if c == nil {
		return
	}
	c.events = log
	c.peerID = peer
}

// emitReject publishes one admission rejection into the event log,
// outside the controller mutex.
func (c *Controller) emitReject(q QoS, scope string, err error) {
	if c.events == nil {
		return
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		return
	}
	c.events.Emit("admission", "reject", c.peerID, "",
		obs.A("scope", scope), obs.A("reason", oe.Reason),
		obs.A("tenant", q.Tenant), obs.A("priority", q.Priority.String()),
		obs.A("retryAfterMs", fmt.Sprintf("%.1f", oe.RetryAfterMS)),
		obs.A("hopeless", fmt.Sprintf("%t", oe.Hopeless)))
}

// Disabled reports whether the controller is in ablation pass-through
// mode. Nil controllers count as disabled.
func (c *Controller) Disabled() bool { return c == nil || c.cfg.Disabled }

// limit returns the occupancy ceiling for class p (0 = unlimited).
func (c *Controller) limit(p Priority) int {
	if c.cfg.MaxConcurrent <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p >= numPriorities {
		p = numPriorities - 1
	}
	n := int(watermarks[p] * float64(c.cfg.MaxConcurrent))
	if n < 1 {
		n = 1
	}
	return n
}

// pruneLocked drops expired leases. Leases are appended with a fixed
// HoldMS on a monotone clock, so the slice stays sorted and expiry is
// a front-trim.
func (c *Controller) pruneLocked(now float64) {
	i := 0
	for i < len(c.leases) && c.leases[i] <= now {
		i++
	}
	if i > 0 {
		c.leases = append(c.leases[:0], c.leases[i:]...)
	}
}

// occupancyLocked is the current slot usage.
func (c *Controller) occupancyLocked() int { return len(c.leases) + c.inflight }

// statsFor returns (creating if needed) the tenant's accounting row.
func (c *Controller) statsFor(tenant string) *tenantStats {
	ts := c.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{}
		c.tenants[tenant] = ts
	}
	return ts
}

// occupyLocked records an admission's slot usage.
func (c *Controller) occupyLocked(now float64) {
	if c.cfg.HoldMS > 0 {
		c.leases = append(c.leases, now+c.cfg.HoldMS)
	} else {
		c.inflight++
	}
}

// AdmitQuery admits a user query at the peer facade: it must both win
// a token from the tenant's bucket and fit under its priority's
// occupancy watermark. deadlineMS (0 = none) is the query's total
// budget; rejections whose retry-after exceeds it are flagged Hopeless
// so callers don't retry a dead query. Returns nil when admitted —
// the caller must pair a successful admission with Done.
func (c *Controller) AdmitQuery(q QoS, deadlineMS float64) error {
	if c == nil {
		return nil
	}
	err := c.admitQueryLocked(q, deadlineMS)
	if err != nil {
		c.emitReject(q, "query", err)
	}
	return err
}

// admitQueryLocked holds the mutex for the admission decision; the
// caller emits any rejection event after release.
func (c *Controller) admitQueryLocked(q QoS, deadlineMS float64) error {
	// The clock is a caller-supplied callback: read it before taking the
	// lock so a clock that consults the controller cannot deadlock.
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	ts := c.statsFor(q.Tenant)
	if !c.cfg.Disabled {
		if lim := c.limit(q.Priority); lim > 0 && c.occupancyLocked() >= lim {
			ts.RejectedLoad++
			return c.rejectLocked(q, "query", reasonLoad, now, deadlineMS)
		}
		if c.cfg.RatePerSec > 0 {
			b := c.bucketLocked(q.Tenant, now)
			if b.tokens < 1 {
				ts.RejectedRate++
				return c.rejectLocked(q, "query", reasonRate, now, deadlineMS)
			}
			b.tokens--
		}
	}
	ts.Admitted++
	c.occupyLocked(now)
	return nil
}

// AdmitWork admits one remote subplan at a serving peer: occupancy
// watermark only, no token charge (the root paid at its facade).
// Returns nil when admitted — pair with Done.
func (c *Controller) AdmitWork(q QoS) error {
	if c == nil {
		return nil
	}
	err := c.admitWorkLocked(q)
	if err != nil {
		c.emitReject(q, "subplan", err)
	}
	return err
}

// admitWorkLocked holds the mutex for the decision; the caller emits
// any rejection event after release.
func (c *Controller) admitWorkLocked(q QoS) error {
	now := c.cfg.Clock() // before the lock: the clock may re-enter
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	ts := c.statsFor(q.Tenant)
	if !c.cfg.Disabled {
		if lim := c.limit(q.Priority); lim > 0 && c.occupancyLocked() >= lim {
			ts.RejectedLoad++
			return c.rejectLocked(q, "subplan", reasonLoad, now, 0)
		}
	}
	ts.Admitted++
	c.occupyLocked(now)
	return nil
}

// Done releases one admission. In lease mode (HoldMS > 0) slots expire
// on the clock instead and Done is a no-op, so it is always safe to
// defer after a successful admission.
func (c *Controller) Done() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.HoldMS > 0 {
		return
	}
	if c.inflight > 0 {
		c.inflight--
	}
}

// ShouldShed reports whether in-flight work of class p should be shed
// right now: the pool has saturated past p's watermark (which only
// happens when higher classes piled on top, since admissions of class
// p stop at the line). High is never shed; disabled controllers never
// shed.
func (c *Controller) ShouldShed(p Priority) bool {
	if c == nil || c.cfg.Disabled {
		return false
	}
	now := c.cfg.Clock() // before the lock: the clock may re-enter
	c.mu.Lock()
	defer c.mu.Unlock()
	lim := c.limit(p)
	if lim == 0 {
		return false
	}
	c.pruneLocked(now)
	return c.occupancyLocked() > lim
}

// RecordShed accounts one shed subplan against its tenant (called by
// the executor when it converts in-flight work to a completeness hole
// or migrates it away under pressure).
func (c *Controller) RecordShed(q QoS) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.statsFor(q.Tenant).Shed++
	c.mu.Unlock()
	if c.events != nil {
		c.events.Emit("admission", "shed", c.peerID, "",
			obs.A("tenant", q.Tenant), obs.A("priority", q.Priority.String()))
	}
}

// Occupancy returns the live slot usage (for load-aware replication
// and tests).
func (c *Controller) Occupancy() int {
	if c == nil {
		return 0
	}
	now := c.cfg.Clock() // before the lock: the clock may re-enter
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	return c.occupancyLocked()
}

// bucketLocked returns the tenant's bucket refilled to now.
func (c *Controller) bucketLocked(tenant string, now float64) *bucket {
	b := c.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: c.cfg.Burst, last: now}
		c.buckets[tenant] = b
	}
	if now > b.last {
		b.tokens += (now - b.last) * c.cfg.RatePerSec / 1000
		if b.tokens > c.cfg.Burst {
			b.tokens = c.cfg.Burst
		}
		b.last = now
	}
	return b
}

// rejectLocked builds the typed overload rejection with its
// retry-after hint.
func (c *Controller) rejectLocked(q QoS, scope, reason string, now, deadlineMS float64) error {
	var after float64
	switch reason {
	case reasonRate:
		b := c.bucketLocked(q.Tenant, now)
		if c.cfg.RatePerSec > 0 {
			after = (1 - b.tokens) * 1000 / c.cfg.RatePerSec
		}
	case reasonLoad:
		if len(c.leases) > 0 {
			after = c.leases[0] - now
		}
	}
	if after <= 0 {
		after = retryHintMS
	}
	return newOverload(q, scope, reason, after, deadlineMS > 0 && after >= deadlineMS)
}

// Rejection reasons carried by OverloadError.
const (
	reasonRate = "rate"
	reasonLoad = "load"
)

// OverloadError is a typed admission rejection. It wraps a transient
// network.DeliveryError with ReasonOverload, so the executor's
// existing retry gate (network.Transient) and the errclass analyzer's
// errors.Is/As discipline both apply unchanged.
type OverloadError struct {
	// QoS identifies the rejected work.
	QoS QoS
	// Scope is "query" (facade) or "subplan" (serving peer).
	Scope string
	// Reason is "rate" (token bucket empty) or "load" (occupancy past
	// the priority's watermark).
	Reason string
	// RetryAfterMS is the logical-clock delay after which admission is
	// expected to succeed; retry logic uses it instead of the default
	// backoff curve.
	RetryAfterMS float64
	// Hopeless marks rejections whose retry-after exceeds the query's
	// remaining deadline budget — retrying cannot help.
	Hopeless bool

	cause *network.DeliveryError
}

func newOverload(q QoS, scope, reason string, afterMS float64, hopeless bool) *OverloadError {
	e := &OverloadError{QoS: q, Scope: scope, Reason: reason, RetryAfterMS: afterMS, Hopeless: hopeless}
	e.cause = &network.DeliveryError{
		Reason:    network.ReasonOverload,
		Transient: true,
		Detail:    e.Error(),
	}
	if !hopeless {
		e.cause.RetryAfterMS = afterMS
	}
	return e
}

// Error renders the rejection deterministically (error text can reach
// experiment digests).
func (e *OverloadError) Error() string {
	return fmt.Sprintf("overload: %s %q/%s rejected (%s), retry after %.1fms",
		e.Scope, e.QoS.Tenant, e.QoS.Priority, e.Reason, e.RetryAfterMS)
}

// Unwrap exposes the transient DeliveryError cause, making
// network.Transient(err) true for any chain containing the rejection.
func (e *OverloadError) Unwrap() error { return e.cause }

// RetryAfterHint extracts an overload rejection's retry-after from an
// error chain. ok is false when the chain holds no rejection or the
// rejection is Hopeless (retrying cannot succeed in budget). A rejection
// that crossed a socket arrives as its DeliveryError cause alone; the
// hint then comes from the cause's RetryAfterMS.
func RetryAfterHint(err error) (afterMS float64, ok bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		if oe.Hopeless {
			return 0, false
		}
		return oe.RetryAfterMS, true
	}
	var de *network.DeliveryError
	if errors.As(err, &de) && de.Reason == network.ReasonOverload && de.RetryAfterMS > 0 {
		return de.RetryAfterMS, true
	}
	return 0, false
}

// IsOverload reports whether the chain contains an admission
// rejection (hopeless or not).
func IsOverload(err error) bool {
	var oe *OverloadError
	return errors.As(err, &oe)
}

// CollectObs publishes admission counters and gauges: per-tenant
// admitted/rejected/shed totals, live occupancy and queue depth, and
// Jain's fairness index over per-tenant admissions (1 = perfectly
// fair). Snapshot is taken under the lock, emission outside it.
func (c *Controller) CollectObs(g *obs.Gather, labels ...obs.Label) {
	if c == nil {
		return
	}
	now := c.cfg.Clock() // before the lock: the clock may re-enter
	c.mu.Lock()
	c.pruneLocked(now)
	names := make([]string, 0, len(c.tenants))
	for t := range c.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	snap := make([]tenantStats, len(names))
	for i, t := range names {
		snap[i] = *c.tenants[t]
	}
	occ := c.occupancyLocked()
	depth := len(c.leases)
	c.mu.Unlock()

	for i, t := range names {
		tl := append(append([]obs.Label{}, labels...), obs.L("tenant", t))
		g.Count("adm_admitted_total", float64(snap[i].Admitted), tl...)
		g.Count("adm_rejected_rate_total", float64(snap[i].RejectedRate), tl...)
		g.Count("adm_rejected_load_total", float64(snap[i].RejectedLoad), tl...)
		g.Count("adm_shed_total", float64(snap[i].Shed), tl...)
	}
	g.Gauge("adm_occupancy", float64(occ), labels...)
	g.Gauge("adm_queue_depth", float64(depth), labels...)
	g.Gauge("adm_fairness_jain", jain(snap), labels...)
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// admitted counts; 1 when every tenant got the same share, →1/n under
// total capture by one tenant. Empty or all-zero input reads as 1.
func jain(ts []tenantStats) float64 {
	var sum, sq float64
	n := 0
	for _, t := range ts {
		x := float64(t.Admitted)
		sum += x
		sq += x * x
		n++
	}
	if n == 0 || sq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sq)
}
