// Package exec is SQPeer's distributed plan executor (paper §2.4–2.5):
// it walks a distributed plan at a root peer, deploys one ubQL-style
// channel per contributing peer, ships subplans, gathers result packets,
// and combines them with unions (horizontal distribution) and joins
// (vertical distribution). Join placement follows the configured shipping
// policy. Failures climb one recovery ladder (ladder.go): retry, migrate
// the failed subtree to an alternate peer while its siblings keep their
// rows (the paper's plan-change protocol), and only then the ubQL
// discard: replan around the obsolete peer and restart.
package exec

import (
	"cmp"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
	"sqpeer/internal/stats"
)

// LocalSource evaluates scan subqueries against a peer's local base as
// row maps. The engine scans through a BatchSource; a peer's source
// offers both.
type LocalSource interface {
	// EvalScan evaluates the conjunction of path patterns locally,
	// returning the joined rows.
	EvalScan(patterns []pattern.PathPattern) *rql.ResultSet
}

// BatchSource evaluates scan subqueries against a peer's local base
// straight into a batch, with no per-row map: the engine's scan leaf.
type BatchSource interface {
	// EvalScanBatch evaluates the conjunction of path patterns locally,
	// returning the joined rows in columnar form. The executor passes a
	// nil store: the rows stay in the base's own ids, over its term
	// snapshot, and nothing is interned. A non-nil store receives the
	// answer rebased onto it.
	EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch
}

// PeerFailure reports that a remote peer could not contribute: the
// executor's replanning treats its peer as obsolete.
type PeerFailure struct {
	// Peer is the failed peer.
	Peer pattern.PeerID
	// Err is the underlying cause.
	Err error
}

// Error renders the failure.
func (e *PeerFailure) Error() string {
	return fmt.Sprintf("exec: peer %s failed: %v", e.Peer, e.Err)
}

// Unwrap exposes the cause.
func (e *PeerFailure) Unwrap() error { return e.Err }

// HoleError reports an attempt to execute a plan that still contains
// holes; hybrid systems treat it as a routing bug, ad-hoc systems forward
// the partial plan instead of executing it.
type HoleError struct {
	// PatternIDs are the path patterns with no responsible peer.
	PatternIDs []string
}

// Error renders the hole list.
func (e *HoleError) Error() string {
	return fmt.Sprintf("exec: plan has unresolved holes for %v", e.PatternIDs)
}

// Options are the executor's settings: join placement plus the
// run-time adaptation choices of §2.5 (retry, migrate, answer
// partially). peer.Config embeds the same struct, so a peer hands its
// settings to its engine in one assignment. Every zero value is the
// default: data shipping, no deadline, no retries, no partial answers,
// 256-row frames, migration on.
type Options struct {
	// Policy places joins; HybridShipping consults Engine.Cost.
	Policy optimizer.ShippingPolicy
	// DeadlineMS, when positive, bounds each dispatch leg on the simulated
	// clock: a delivery slower than this (hung or gray-failed peer) fails
	// with a transient error instead of wedging the query. Upstream
	// packets are bounded separately via Channels.DeadlineMS.
	DeadlineMS float64
	// MaxRetries is how many times a transiently-failed dispatch is
	// retried (with exponential backoff from retryBackoffMS) before the
	// peer is declared obsolete and replanned around. 0 — the historical
	// behaviour — disables retries.
	MaxRetries int
	// AllowPartial opts into graceful degradation: when the plan (or a
	// replan) leaves unresolved holes, the engine answers them as absent
	// branches, executes the answerable remainder, and returns the rows
	// with a Completeness annotation naming the unanswered patterns —
	// instead of failing the query.
	AllowPartial bool
	// BatchSize caps rows per Results packet when this engine answers
	// shipped subplans (default 256). Smaller batches mean more packets —
	// the ubQL streaming the throughput monitor observes.
	BatchSize int
	// DisableMigration turns mid-flight subplan migration off, so every
	// peer failure takes the legacy discard-replan-restart path — the
	// ablation CLAIM-RECOVER compares against. The zero value migrates
	// up to maxMigrations subtrees per execution round.
	DisableMigration bool
}

// Fixed executor constants; none is a setting.
const (
	// maxReplans bounds the whole-plan adaptation rounds of one
	// ExecuteAnnotated call.
	maxReplans = 3
	// maxMigrations bounds mid-flight subplan migrations per round.
	maxMigrations = 3
	// retryBackoffMS is the first retry's backoff, doubling per retry.
	// Backoff is charged to the metrics' logical clock, not slept: the
	// simulated network keeps experiments deterministic.
	retryBackoffMS = 10
	// defaultBatchSize is the Results frame size when BatchSize is 0.
	defaultBatchSize = 256
)

// Engine executes distributed plans at one peer. The same engine serves
// both roles: root of its own queries, and remote evaluator of subplans
// shipped by other peers (registered under the "exec.subplan" message
// kind).
type Engine struct {
	// Options are the engine's settings.
	Options
	// Self is the peer this engine runs at.
	Self pattern.PeerID
	// Net is the transport.
	Net *network.Network
	// Channels is the peer's channel manager.
	Channels *channel.Manager
	// Local evaluates scans against the peer's base.
	Local BatchSource
	// Cost estimates placements for HybridShipping; nil forces
	// DataShipping behaviour.
	Cost *optimizer.CostModel
	// Router, when set, enables run-time adaptation: on peer failure the
	// engine migrates the failed subtree or replans around the obsolete
	// peer and restarts (ubQL discard), up to maxReplans times.
	Router *routing.Router
	// Health, when set, receives per-peer dispatch outcomes and replaces
	// Unregister-on-failure with circuit-breaker quarantine: failed peers
	// leave routing for a cool-down instead of being forgotten.
	Health *routing.Health
	// Throughput, when set, is the paper's run-time adaptation trigger:
	// the engine tracks per-peer row rates during collection and, after a
	// completed round, replans around peers the monitor flags.
	Throughput *optimizer.ThroughputMonitor
	// StatsProvider, when set, supplies this peer's current statistics as
	// an encoded stats.MarshalPeerStats body plus its version, the stamp
	// and generation of the base it describes. The body rides as the
	// Stats trailer of the final packet of an answered subplan (paper
	// §2.4: packets "can also contain ... statistics useful for query
	// optimization") whenever the root's request states another version
	// than this one. The provider may hand back the same body for as long
	// as the statistics are unchanged; the engine never mutates it.
	StatsProvider func() (body []byte, stamp, gen uint64)
	// StatsSink, when set, receives statistics arriving on channels this
	// engine roots, keeping the local catalog fresh.
	StatsSink func(*stats.PeerStats)
	// Tracer, when set, opens a query trace per Execute call (unless the
	// caller supplies a parent span via ExecuteBatch): spans for
	// every phase, with trace IDs propagated to remote evaluators in the
	// subplan request so their execution grafts back into the root's
	// trace. Nil disables tracing at zero cost — all span operations are
	// nil-receiver no-ops.
	Tracer *obs.Tracer
	// Obs, when set, receives direct event counters (stats packets
	// received/applied, throughput flag transitions). Component counters
	// (Metrics, channel and health stats) reach the registry through
	// snapshot-time collectors instead — see peer.New.
	Obs *obs.Registry
	// Admission, when set, is this peer's admission controller. Serving
	// side, handleSubplan admits every arriving subplan against the
	// occupancy watermark of its priority class (rejections surface as
	// transient OverloadErrors carrying a retry-after hint). Root side,
	// a saturated pool sheds not-yet-dispatched subplans of classes past
	// their watermark into completeness holes (AllowPartial only; High
	// is never shed). Nil disables both — the historical behaviour.
	Admission *admission.Controller
	// Events, when set, receives the executor's operations events, each
	// stamped with Self and written by the same record call that folds
	// the fact into Metrics: one "dispatch" per SubplansShipped, "retry"
	// per Retries, "resume" per Resumes, "replan" per Replans, "shed" per
	// Shed, "migrate" per Migrations and one "ledger" per ledger entry.
	// CLAIM-OBSERVE reconciles them against the counters. Nil disables
	// the plane (the ablation path); events are emitted outside e.mu.
	Events *obs.EventLog

	mu      sync.Mutex
	metrics Metrics
	// lastLedger is the per-leaf row ledger of the most recent
	// ExecuteAnnotated call: one entry per finished dispatch, recording
	// site, rows and the channel watermark at completion.
	lastLedger []LedgerEntry
	// serving is set on the shadow engine handleSubplan builds for one
	// shipped subplan: the shadow records its counters straight into the
	// engine the subplan arrived at, and uses its dictionary mirrors.
	serving *Engine
	// mirror is the engine's dictionary mirrors, made when first needed
	// (see mirrors).
	mirror atomic.Pointer[mirrorSet]
}

// patternIDs lists the pattern ids of a node's scans, each once, in scan
// order.
func patternIDs(n plan.Node) []string {
	seen := map[string]bool{}
	var ids []string
	for _, s := range plan.Scans(n) {
		for _, id := range s.PatternIDs() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// patternKey renders a node's pattern ids, deduplicated and sorted — the
// site-independent identity of the data slice a dispatch fetches.
func patternKey(n plan.Node) string {
	ids := patternIDs(n)
	sort.Strings(ids)
	return strings.Join(ids, "+")
}

// NewEngine wires an engine for a peer into the network, registering the
// subplan-execution handler.
func NewEngine(self pattern.PeerID, net *network.Network, ch *channel.Manager, local BatchSource) *Engine {
	e := &Engine{
		Self:     self,
		Net:      net,
		Channels: ch,
		Local:    local,
	}
	net.Handle(self, "exec.subplan", e.handleSubplan)
	return e
}

// Unanswered names one path pattern a partial answer is missing and why.
type Unanswered struct {
	// PatternID is the path pattern left without a responsible peer.
	PatternID string `json:"patternId"`
	// Reason describes what removed the pattern's peers.
	Reason string `json:"reason"`
}

// Completeness annotates a result with what it covers: Complete results
// answered every path pattern; partial results list the patterns that
// went unanswered (graceful degradation, the paper's partial-plan
// semantics in ad-hoc SONs).
type Completeness struct {
	// Complete reports whether every path pattern was answered.
	Complete bool `json:"complete"`
	// Unanswered lists the dropped patterns, sorted by id; empty when
	// Complete.
	Unanswered []Unanswered `json:"unanswered,omitempty"`
}

// Result is an executed query's rows plus their completeness annotation.
type Result struct {
	// Rows is the (possibly partial) result set.
	Rows *rql.ResultSet
	// Completeness records what the rows cover.
	Completeness Completeness
}

// Execute runs a distributed plan rooted at this peer and returns the
// final result set, applying the query pattern's projections: the rows
// of ExecuteAnnotated, without the completeness annotation.
func (e *Engine) Execute(p *plan.Plan) (*rql.ResultSet, error) {
	res, err := e.ExecuteAnnotated(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// ExecuteAnnotated runs a distributed plan rooted at this peer and
// returns its projected rows with their completeness annotation. Plans
// with holes are rejected with *HoleError unless AllowPartial; failures
// climb the recovery ladder (ladder.go) before they surface, a peer's as
// *PeerFailure. It runs as an untagged Low-priority query, under a
// standalone trace when a Tracer is configured.
func (e *Engine) ExecuteAnnotated(p *plan.Plan) (*Result, error) {
	rows, comp, err := e.ExecuteBatch(p, nil, admission.QoS{})
	if err != nil {
		return nil, err
	}
	if p.Query != nil && len(p.Query.Projections) > 0 {
		rows = rows.Project(p.Query.Projections)
	}
	// The facade boundary: batches become the public ResultSet.
	return &Result{Rows: rows.ResultSet(), Completeness: comp}, nil
}

// ExecuteBatch is ExecuteAnnotated stopped short of the facade, under a
// caller-supplied trace span and an explicit QoS: it returns the answer
// as the executor's batch over every variable the plan binds,
// unprojected, with its completeness annotation; the batch is nil only
// with an error, and empty when nothing was answerable. The peer facade
// finishes the answer on it — WHERE filters, then projection, then LIMIT
// — so a filter on a variable outside SELECT still sees its bindings, and
// the rows become row maps once, at the end. The peer layer passes its
// query span so routing, planning and execution share one trace; with a
// nil span and a configured Tracer, the engine opens a standalone trace
// for the call.
// The tenant and priority ride every subplan request this execution
// ships, so serving peers admit (or shed) the work under the same class
// the root charged at its facade. The zero QoS is an untagged
// Low-priority query — indistinguishable from the historical behaviour
// unless an admission controller is configured somewhere.
func (e *Engine) ExecuteBatch(p *plan.Plan, span *obs.Span, qos admission.QoS) (*rql.Batch, Completeness, error) {
	if span == nil && e.Tracer != nil {
		tr := e.Tracer.StartTrace("execute@"+string(e.Self), string(e.Self))
		span = tr.Root()
		defer span.End()
	}
	current := p
	// fetched maps each dispatched (site, pattern set) to the rows its
	// first completed dispatch delivered; a later dispatch of the same
	// pair is re-fetched work (what restarts pay and migration avoids).
	fetched := map[string]int{}
	e.mu.Lock()
	e.lastLedger = nil
	e.mu.Unlock()
	var lastFailure error
	for attempt := 0; ; attempt++ {
		// Under AllowPartial, holes stay in the plan: the execution fills
		// them mid-flight from fresh advertisements (upgrading the
		// answer's completeness without a restart) or answers them as
		// absent branches, reported unanswered with the last failure.
		if holes := plan.Holes(current.Root); len(holes) > 0 && !e.AllowPartial {
			ids := make([]string, len(holes))
			for i, h := range holes {
				ids[i] = h.Patterns[0].ID
			}
			return nil, Completeness{}, &HoleError{PatternIDs: ids}
		}
		rel, runtimeUn, err := e.executeOnce(current, attempt, lastFailure, fetched, span, qos)
		// The round climbs the ladder: the paper's literal run-time trigger
		// (peers whose channels streamed too few rows) and a peer failure
		// both replan around the obsolete peers and restart — ubQL
		// discard — while replans last.
		o, obsolete := roundOutcome(err, e.slowPeers)
		var replanned *plan.Plan
		var rerr error
		d := ladder(o, facts{router: e.Router != nil, replans: attempt, partial: e.AllowPartial,
			reroute: func() (c cover) {
				replanned, c, rerr = e.replan(current, o, obsolete, attempt, span)
				return c
			}})
		switch d.step {
		case stepComplete:
			// These rows are the answer: holes this round could not fill
			// mid-flight are what the result is missing.
			comp := Completeness{Complete: len(runtimeUn) == 0, Unanswered: runtimeUn}
			if len(runtimeUn) > 0 {
				e.record(fact{kind: factPartialAnswer}, nil)
			}
			return rel, comp, nil
		case stepFail:
			if rerr != nil {
				return nil, Completeness{}, fmt.Errorf("exec: adaptation after %v: %w", err, rerr)
			}
			return nil, Completeness{}, err
		case stepHole:
			// The next round answers the replan's holes as absent
			// branches, noted in the completeness annotation with this
			// failure. On the root span: the replan span has ended.
			lastFailure = err
			e.record(fact{kind: factReplan, trigger: "failure-partial", obsolete: peersCSV(obsolete)}, span)
		case stepReplan:
			if o == outSlow {
				rsp := replanSpan(span, attempt, "throughput", obsolete)
				e.record(fact{kind: factReplan, trigger: "throughput", obsolete: peersCSV(obsolete)}, rsp)
				rsp.End()
			} else {
				e.record(fact{kind: factReplan, trigger: "failure", obsolete: peersCSV(obsolete)}, span)
			}
		}
		current = replanned
	}
}

// dropFromRouting removes a failed peer from routing's working set: via
// the circuit breaker when health tracking is on (quarantine — the peer
// may come back), else by forgetting the advertisement entirely (the
// historical behaviour).
func (e *Engine) dropFromRouting(peer pattern.PeerID) {
	if e.Health != nil {
		e.Health.QuarantineNow(peer)
		return
	}
	e.Router.Registry.Unregister(peer)
}

// slowPeers closes a throughput observation window and returns the peers
// it newly flagged (nil without a monitor). Flags are consumed: the
// engine quarantines and replans, so the monitor forgets them.
func (e *Engine) slowPeers() []pattern.PeerID {
	if e.Throughput == nil {
		return nil
	}
	flagged := e.Throughput.Tick()
	for _, peer := range flagged {
		if e.Obs != nil {
			e.Obs.Counter("exec_throughput_flags_total",
				obs.L("peer", string(e.Self)), obs.L("site", string(peer))).Inc()
		}
		e.Throughput.Unflag(peer)
	}
	return flagged
}

// peersCSV renders a sorted peer list for span annotations.
func peersCSV(peers []pattern.PeerID) string {
	parts := make([]string, len(peers))
	for i, p := range peers {
		parts[i] = string(p)
	}
	return strings.Join(parts, ",")
}

// execution is the per-Execute state: one channel per contacted peer and
// a memo of finished dispatches. An execution runs on the goroutine of
// the Execute call that owns it: the plan is walked depth first, one
// branch after another, so concurrent Execute calls on one engine share
// no per-execution state and nothing in an execution runs concurrently
// with its walk except the packet callbacks (see mu).
type execution struct {
	engine *Engine
	// attempt is the ExecuteAnnotated restart round this execution runs in
	// (ledger bookkeeping).
	attempt int
	// holeReason explains why holes in the plan are unanswerable, for the
	// completeness annotation when mid-flight filling fails.
	holeReason string
	// fetched is ExecuteAnnotated's cross-attempt (site, pattern set) →
	// rows map backing the refetch accounting.
	fetched map[string]int
	// qos is the tenant/priority the execution runs under: stamped onto
	// every subplan request, and consulted for root-side shedding.
	qos   admission.QoS
	sites map[pattern.PeerID]*siteChan
	// memo holds the rows of every finished remote dispatch (nil for a
	// shed one) by site and subplan: optimized plans repeat the same scan
	// under several union branches, and only the first ships it.
	memo map[string]*rql.Batch
	// migrations counts mid-flight subplan migrations this round, bounded
	// by maxMigrations.
	migrations int
	// completedRows sums rows delivered by completed dispatches this
	// round — the sibling work a migration retains.
	completedRows int
	// unanswered records holes that could not be filled mid-flight:
	// pattern id → reason.
	unanswered map[string]string

	// mu guards every slot's res and the in-flight collector it points
	// at. The walk sets and takes res around each send, and the channel's
	// packet callback fills it: in process that callback runs inside the
	// send, but a packet that enters through a network.Gateway is
	// delivered on the gateway's connection goroutine.
	mu sync.Mutex
}

// siteChan is the per-peer channel slot: the deployed channel the
// execution ships every subplan for the peer on (the paper deploys
// exactly one channel per contributing peer), one request at a time.
type siteChan struct {
	ch *channel.Channel
	// held is what the root held of the site's dictionary and statistics
	// when the slot was made. Every request on the slot states it, not
	// what the root holds by the time the request ships: the root's mirror
	// grows as the slot's earlier answers arrive, and stating it fresh
	// would change what the later requests ship. A retry makes a fresh
	// slot and states the fresh count.
	held holding
	// res collects the in-flight dispatch's packets: set when the request
	// ships, taken when it returns, nil in between. Guarded by the
	// execution's mu.
	res *remoteResult
}

type remoteResult struct {
	site pattern.PeerID
	// batches accumulate the stream's Results frames in arrival order.
	// Frames are disjoint slices of the destination's already-
	// deduplicated relation, so gathered() reassembles them by
	// concatenation instead of a quadratic repeated Union.
	batches []*rql.Batch
	err     error
	done    bool
	// span is the dispatch try's stream span: the packet collector
	// charges per-packet transfer time to it and grafts the remote
	// peer's shipped span subtree under it. nil when tracing is off.
	span *obs.Span
	// link is the root→site link, captured at dispatch so the packet
	// collector prices transfers without touching the network's lock.
	link stats.Link
	// rowCount sums the rows of accepted Results packets this dispatch
	// (channel-layer dedup already dropped replays).
	rowCount int
	// resumed / restarted record the destination's PlanChange ack: the
	// requested row checkpoint was honored, or rejected and the stream
	// restarted from row 0.
	resumed   bool
	restarted bool
	// watermark is the channel's contiguous sequence watermark when the
	// dispatch finished.
	watermark int
}

// graft hangs the remote span record a final packet carried under the
// dispatch's stream span; a missing or undecodable record is skipped.
func (res *remoteResult) graft(spans []byte) {
	if len(spans) == 0 || res.span == nil {
		return
	}
	var rec obs.SpanRecord
	if err := json.Unmarshal(spans, &rec); err == nil {
		res.span.Graft(&rec)
	}
}

// gathered reassembles the stream's accepted Results payloads into one
// relation. nil when no Results packet arrived at all — the same "no
// stream" sentinel the old single-ResultSet field encoded (a destination
// always sends at least one Results packet, even for an empty answer).
func (res *remoteResult) gathered() *rql.Batch {
	if len(res.batches) > 0 {
		return rql.Concat(res.batches...)
	}
	return nil
}

func newExecution(e *Engine) *execution {
	ex := &execution{
		engine:     e,
		fetched:    map[string]int{},
		sites:      map[pattern.PeerID]*siteChan{},
		memo:       map[string]*rql.Batch{},
		unanswered: map[string]string{},
		holeReason: "no peer advertises this pattern",
	}
	e.trimMirrors()
	return ex
}

// executeOnce runs one execution round. It returns the round's rows (nil
// only on error) plus the patterns whose holes could not be filled
// mid-flight, sorted by id.
func (e *Engine) executeOnce(p *plan.Plan, attempt int, lastFailure error, fetched map[string]int, parent *obs.Span, qos admission.QoS) (*rql.Batch, []Unanswered, error) {
	ex := newExecution(e)
	ex.attempt = attempt
	ex.qos = qos
	if fetched != nil {
		ex.fetched = fetched
	}
	if lastFailure != nil {
		ex.holeReason = lastFailure.Error()
	}
	asp := parent.Child(obs.KindAttempt, fmt.Sprintf("attempt.%d", attempt))
	defer asp.End()
	defer ex.closeAll()
	rows, err := ex.run(p.Root, asp)
	if err != nil {
		return nil, nil, err
	}
	if rows == nil {
		// Every branch was an unfillable hole: an empty — but explicitly
		// annotated — answer.
		rows = rql.NewBatch()
	}
	var un []Unanswered // nil when every hole was filled
	for id, reason := range ex.unanswered {
		un = append(un, Unanswered{PatternID: id, Reason: reason})
	}
	sort.Slice(un, func(i, j int) bool { return un[i].PatternID < un[j].PatternID })
	return rows, un, nil
}

// runAll evaluates the inputs of a union or join one after another, in
// input order, and stops at the first error.
func (ex *execution) runAll(inputs []plan.Node, parent *obs.Span) ([]*rql.Batch, error) {
	// Branch spans are made here, in input order, before any branch runs:
	// every sibling's span exists before the first branch opens spans of
	// its own, so the exported layout is a function of the plan alone.
	// Sibling span names are made unique by the branch index prefix.
	var spans []*obs.Span
	if parent != nil {
		spans = make([]*obs.Span, len(inputs))
		for i, in := range inputs {
			spans[i] = parent.Child(branchKind(in), fmt.Sprintf("b%02d.%s", i, branchName(in)))
		}
		defer endAll(spans)
	}
	out := make([]*rql.Batch, len(inputs))
	for i, in := range inputs {
		var sp *obs.Span
		if spans != nil {
			sp = spans[i]
		}
		rs, err := ex.run(in, sp)
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

// branchKind maps a plan node to the span kind of its branch span.
func branchKind(n plan.Node) string {
	switch n.(type) {
	case *plan.Union:
		return obs.KindUnion
	case *plan.Join:
		return obs.KindJoin
	default:
		return obs.KindScan
	}
}

// branchName renders a short deterministic label for a branch span.
func branchName(n plan.Node) string {
	switch v := n.(type) {
	case *plan.Union:
		return "union"
	case *plan.Join:
		return "join"
	case *plan.Scan:
		ids := strings.Join(v.PatternIDs(), "+")
		if v.IsHole() {
			return ids + "@?"
		}
		return ids + "@" + string(v.Peer)
	default:
		return "node"
	}
}

// endAll closes a batch of branch spans.
func endAll(spans []*obs.Span) {
	for _, s := range spans {
		s.End()
	}
}

// run evaluates a plan node, producing its rows at e.Self. A nil result
// with nil error is the "absent" sentinel: an unfillable hole under
// AllowPartial contributed nothing, and the parent union/join skips the
// branch instead of joining against an empty set (which would wrongly
// annihilate sibling rows: the join answers its remaining inputs).
// sp is the node's own span (the branch span its parent pre-created, or
// the attempt span at the plan root); nil when tracing is off.
func (ex *execution) run(n plan.Node, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	switch v := n.(type) {
	case *plan.Scan:
		if v.IsHole() {
			return ex.runHole(v, sp)
		}
		if v.Peer == e.Self {
			e.record(fact{kind: factLocalScan}, nil)
			// The scan leaf is where rows enter the engine's data plane,
			// born a batch, so every union/join above runs vectorized.
			// The scan answers in its base's ids (a nil store), at a root
			// as at a serving peer: no term is interned.
			b := e.Local.EvalScanBatch(v.Patterns, nil)
			if sp != nil {
				sp.Annotate("localRows", fmt.Sprintf("%d", b.Len()))
			}
			return b, nil
		}
		return ex.runRemote(v.Peer, v, sp)
	case *plan.Union:
		rss, err := ex.runAll(v.Inputs, sp)
		if err != nil {
			return nil, err
		}
		// nil branches (unfilled holes) contribute nothing; all-nil means
		// the whole union is absent.
		acc := unionAll(rss)
		if acc == nil && len(rss) == 0 {
			acc = rql.NewBatch()
		}
		return acc, nil
	case *plan.Join:
		site := ex.placeJoin(v)
		if site != e.Self && !plan.HasHoles(v) {
			// Holes never ship: the remote evaluator has no router to fill
			// them, so a holed join subtree always runs at the root.
			return ex.runRemote(site, v, sp)
		}
		rss, err := ex.runAll(v.Inputs, sp)
		if err != nil {
			return nil, err
		}
		var acc *rql.Batch
		absent := false
		for _, rel := range rss {
			if rel == nil {
				absent = true
				continue // absent branch: join the answerable remainder
			}
			if acc == nil {
				acc = rel
			} else {
				acc = acc.Join(rel)
			}
		}
		if acc == nil {
			if absent {
				return nil, nil // the whole join was unanswerable
			}
			acc = rql.NewBatch()
		}
		return acc, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// unionAll merges the non-nil batches in one pass: a single dedup over
// every branch (rql.UnionAll) rather than a pairwise fold, which would
// re-key the accumulated relation once per branch. Returns nil — absent —
// when every input is nil.
func unionAll(bs []*rql.Batch) *rql.Batch {
	for _, b := range bs {
		if b != nil {
			return rql.UnionAll(bs...)
		}
	}
	return nil
}

// placeJoin picks the join's execution site under the engine's policy.
// Remote placement ships the whole join subtree to the site (query
// shipping); the shipped peer then executes it with itself as the join
// site, which terminates the recursion.
func (ex *execution) placeJoin(j *plan.Join) pattern.PeerID {
	e := ex.engine
	switch e.Policy {
	case optimizer.DataShipping:
		return e.Self
	case optimizer.QueryShipping:
		if e.Cost != nil {
			if site := largestScanPeer(e.Cost, j); site != "" {
				return site
			}
		}
		// Without statistics, push to the first remote scan peer.
		for _, s := range plan.Scans(j) {
			if !s.IsHole() && s.Peer != e.Self {
				return s.Peer
			}
		}
		return e.Self
	default: // HybridShipping
		if e.Cost == nil {
			return e.Self
		}
		rep := e.Cost.EstimateCost(j, e.Self, optimizer.HybridShipping)
		// The last decision recorded corresponds to the outermost join.
		if len(rep.Decisions) > 0 {
			return rep.Decisions[len(rep.Decisions)-1].Site
		}
		return e.Self
	}
}

func largestScanPeer(cm *optimizer.CostModel, j *plan.Join) pattern.PeerID {
	var best pattern.PeerID
	bestCard := -1.0
	for _, s := range plan.Scans(j) {
		if s.IsHole() {
			continue
		}
		if c := cm.CardOf(s); c > bestCard {
			bestCard = c
			best = s.Peer
		}
	}
	return best
}

// runRemote ships the node to the site peer and gathers its rows through
// the channel, climbing the recovery ladder when the site fails. A
// dispatch this execution already finished is answered from its memo.
func (ex *execution) runRemote(site pattern.PeerID, n plan.Node, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	key := string(site) + "\x00" + n.String()
	if rows, ok := ex.memo[key]; ok {
		// The annotation's key is part of the exported trace format.
		if sp != nil {
			sp.Annotate("singleflight", "hit")
		}
		return rows, nil
	}
	// Root-side load shedding: once this peer's pool has saturated past
	// the execution's priority watermark (which only happens when
	// higher classes piled on top — admission stops same-class entry at
	// the line), a subplan not yet dispatched is converted into an
	// explicit completeness hole rather than queued into the overload.
	// The query answers partially and immediately instead of timing
	// out. Requires AllowPartial; High-priority work never sheds
	// (ShouldShed guarantees it).
	var rows *rql.Batch // nil when shed: the absent-branch sentinel
	if e.AllowPartial && e.Admission.ShouldShed(ex.qos.Priority) {
		ex.shedSubplan(site, n, sp)
	} else {
		var err error
		if rows, err = ex.climb(site, n, sp); err != nil {
			// A failed leaf fails the round: nothing asks the memo again.
			return nil, err
		}
	}
	ex.memo[key] = rows
	return rows, nil
}

// shedSubplan converts a not-yet-dispatched remote subtree into
// completeness holes: every scan pattern under it is recorded
// unanswered with a shed reason, the tenant is charged a shed, and the
// ledger gets a "shed" entry so the overload experiment can prove shed
// work surfaced as partial answers rather than bare timeouts. A shipped
// subtree always has scans (holes never ship), so there is always a
// pattern to name.
func (ex *execution) shedSubplan(site pattern.PeerID, n plan.Node, sp *obs.Span) {
	e := ex.engine
	reason := fmt.Sprintf("shed: overload at %s (%s)", e.Self, ex.qos.Priority)
	ex.markUnanswered(patternIDs(n), reason)
	ssp := sp.Child(obs.KindShed, "shed@"+string(site))
	if ssp != nil {
		ssp.Annotate("reason", reason)
		ssp.Annotate("priority", ex.qos.Priority.String())
	}
	// Recorded before End: recording on an ended span is an obsspan
	// lint error.
	e.record(fact{kind: factShed, qos: ex.qos, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: patternKey(n), Attempt: ex.attempt,
	}}, ssp)
	ssp.End()
}

// markUnanswered records the patterns as unanswered for reason; a
// pattern keeps the first reason recorded for it.
func (ex *execution) markUnanswered(ids []string, reason string) {
	for _, id := range ids {
		if _, ok := ex.unanswered[id]; !ok {
			ex.unanswered[id] = reason
		}
	}
}

// recordComplete books a finished dispatch into the ledger, the refetch
// accounting and the round's retained-rows counter.
func (ex *execution) recordComplete(site pattern.PeerID, n plan.Node, rows, watermark int, resumed bool) {
	e := ex.engine
	key := patternKey(n)
	slice := string(site) + "\x00" + key
	_, again := ex.fetched[slice]
	if !again {
		ex.fetched[slice] = rows
	}
	ex.completedRows += rows
	// A site that already delivered this pattern set in an earlier
	// dispatch of this query re-paid the whole fetch.
	refetched := 0
	if again {
		refetched = rows
	}
	e.record(fact{kind: factComplete, count: refetched, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: key,
		Rows: rows, Watermark: watermark, Attempt: ex.attempt, Resumed: resumed,
	}}, nil)
}

// resetSite retires a site's channel slot after a failed dispatch, so
// the retry deploys a fresh channel rather than reuse the slot.
func (ex *execution) resetSite(site pattern.PeerID) {
	if sc, ok := ex.sites[site]; ok {
		delete(ex.sites, site)
		ex.engine.Channels.Close(sc.ch)
	}
}

// dispatch performs one shipment of the encoded subplan data and collects
// the streamed reply. It returns the remoteResult even on failure, and
// every failure as a PeerFailure for site: the rows that arrived before
// the break are a contiguous checkpoint the retry loop keeps.
// sp is the try's stream/retry span: the request leg's transfer time is
// charged to it here, reply packets are charged by the packet collector,
// and the remote's shipped span record is grafted under it.
func (ex *execution) dispatch(site pattern.PeerID, data []byte, try, resumeFrom int, sp *obs.Span) (*remoteResult, error) {
	e := ex.engine
	sc := ex.channelTo(site, sp.TraceID())
	// The packet collector prices reply transfers from this snapshot of
	// the link, so it never touches the network's lock.
	var link stats.Link
	if sp != nil {
		link = e.Net.LinkBetween(e.Self, site)
	}
	// The request deploys the channel at the destination. A positive
	// resumeFrom asks the destination to skip that many leading rows; it
	// acknowledges with a PlanChange packet before streaming. SeqBase
	// continues the channel's numbering, so the packets of a replayed
	// request land at or below the watermark and are dropped as
	// duplicates.
	req := channel.SubplanRequest{Channel: sc.ch.Num, SeqBase: sc.ch.Watermark(), Plan: data,
		ResumeFrom: resumeFrom, Tenant: ex.qos.Tenant, Priority: int(ex.qos.Priority),
		Stamp: sc.held.stamp, Mirrored: sc.held.mirrored, StatsGen: sc.held.stats}
	if sp != nil {
		req.TraceID = sp.TraceID()
		req.SpanID = sp.Path()
	}
	msg := network.Message{Kind: "exec.subplan", Payload: channel.AppendSubplan(nil, &req)}
	if sp != nil {
		sp.ChargeMS(link.TransferMS(msg.Size()))
	}
	ex.mu.Lock()
	sc.res = &remoteResult{site: site, span: sp, link: link}
	ex.mu.Unlock()
	e.record(fact{kind: factShipped, site: site, try: try}, sp)
	if tm := e.Throughput; tm != nil {
		tm.Track(site)
	}
	sendErr := e.Net.SendWithin(e.Self, site, msg.Kind, msg.Payload, e.DeadlineMS)
	// Delivery is synchronous: by the time Send returns, the remote has
	// executed and its packets have been dispatched to our collector. Even
	// a failed send may have let packets through first (e.g. a crash
	// mid-stream), so always collect what arrived.
	ex.mu.Lock()
	res := sc.res
	sc.res = nil
	ex.mu.Unlock()
	res.watermark = sc.ch.Watermark()
	if sendErr != nil {
		return res, &PeerFailure{Peer: site, Err: sendErr}
	}
	if res.err != nil {
		return res, &PeerFailure{Peer: site, Err: res.err}
	}
	if !res.done {
		return res, &PeerFailure{Peer: site, Err: fmt.Errorf("result stream ended without a final packet")}
	}
	return res, nil
}

// channelTo returns (deploying if necessary) the execution's channel slot
// for a peer — one channel per peer, as in the paper. Deploying is local:
// the first subplan shipped on the channel opens it at the destination.
// trace is the query's trace id, recorded on the channel for its events.
func (ex *execution) channelTo(site pattern.PeerID, trace string) *siteChan {
	if sc, ok := ex.sites[site]; ok {
		return sc
	}
	e := ex.engine
	sc := &siteChan{held: e.mirrors().holding(site)}
	sc.ch = e.Channels.Deploy(trace, func(pkt channel.Packet) { ex.onPacket(sc, pkt) })
	ex.sites[site] = sc
	e.record(fact{kind: factChannelOpened}, nil)
	return sc
}

// onPacket folds one accepted packet into the site slot's in-flight
// collector. A packet that arrives with no dispatch in flight on the
// slot is ignored. A Results frame is decoded into the engine's mirror
// store outside ex.mu; once one of a dispatch's frames fails (it does not
// decode, or the mirror refuses it), the dispatch's later frames are
// neither kept nor counted toward its checkpoint, so the checkpoint is
// exactly the rows the root holds.
func (ex *execution) onPacket(sc *siteChan, pkt channel.Packet) {
	e := ex.engine
	ex.mu.Lock()
	res := sc.res
	if res != nil && res.span != nil {
		// Price the reply leg: every packet that reaches the collector
		// crossed the site→root link once, at the size the network
		// accounted. The link was captured at dispatch, so no network lock
		// is touched here.
		res.span.ChargeMS(res.link.TransferMS(pkt.WireBytes))
	}
	keep := res != nil && pkt.Type == channel.Results && res.err == nil
	ex.mu.Unlock()
	if res == nil {
		return
	}
	var frame *rql.Batch
	var frameErr error
	if keep {
		frame, frameErr = e.mirrors().frame(res.site, pkt.Payload)
	}
	var pc channel.PlanChangeInfo
	var pcErr error
	if pkt.Type == channel.PlanChange {
		pc, pcErr = channel.DecodePlanChange(pkt.Payload)
	}
	// The stats sink is a caller-supplied callback: invoke it only after
	// ex.mu is released, so a sink that re-enters the engine cannot
	// deadlock against a packet handler.
	var sinkStats *stats.PeerStats
	statsReceived := false
	ex.mu.Lock()
	if sc.res != res {
		// The dispatch ended while the frame was decoded.
		ex.mu.Unlock()
		return
	}
	switch pkt.Type {
	case channel.Results:
		// A frame that fails still counts as shipped (the fact below).
		switch {
		case !keep:
		case frameErr != nil && refused(frameErr):
			res.err = frameErr
		case frameErr != nil:
			res.err = fmt.Errorf("exec: bad results packet: %w", frameErr)
		default:
			res.batches = append(res.batches, frame)
			res.rowCount += pkt.Rows
		}
		if tm := e.Throughput; tm != nil {
			tm.Observe(res.site, pkt.Rows)
		}
		if !pkt.Final {
			break
		}
		// The final packet ends the stream and carries its trailers:
		// the serving peer's statistics, when they moved since the
		// version the request stated, and, when the root shipped a trace
		// context, the remote span record.
		res.done = true
		res.graft(pkt.Spans)
		if len(pkt.Stats) > 0 {
			statsReceived = true
			if e.StatsSink != nil {
				if ps, err := stats.UnmarshalPeerStats(pkt.Stats); err == nil && ps.Peer != "" {
					sinkStats = ps
				}
			}
		}
	case channel.PlanChange:
		if pcErr != nil {
			res.err = fmt.Errorf("exec: bad plan-change packet: %w", pcErr)
			break
		}
		switch pc.Reason {
		case "resume-honored":
			res.resumed = true
		case "checkpoint-invalid":
			res.restarted = true
		}
	case channel.Failure:
		// The failure ends the stream; its trailer still carries the
		// remote span record, so the partial remote subtree lands in
		// the trace.
		res.err = fmt.Errorf("exec: remote failure: %s", pkt.Payload)
		res.graft(pkt.Spans)
	}
	ex.mu.Unlock()
	// Facts, registry counters and the mirror live behind their own
	// locks: touch them after ex.mu is released so lock order stays
	// one-deep.
	if pkt.Type == channel.PlanChange && pcErr == nil {
		e.record(fact{kind: factPlanChangeAck}, nil)
	}
	if pkt.Type == channel.Results {
		e.record(fact{kind: factResults, count: pkt.Rows, bytes: len(pkt.Payload)}, nil)
		if reg := e.Obs; reg != nil {
			reg.Histogram("exec_batch_rows", obs.L("peer", string(e.Self))).Observe(float64(pkt.Rows))
		}
	}
	if pkt.Type == channel.Results && pkt.Final {
		// Statistics the root could not read stay unapplied, so the next
		// request asks for them again.
		applied := statsReceived && (sinkStats != nil || e.StatsSink == nil)
		e.mirrors().final(res.site, pkt.Stamp, applied, pkt.StatsGen)
	}
	if statsReceived {
		if reg := e.Obs; reg != nil {
			peerL := obs.L("peer", string(e.Self))
			siteL := obs.L("site", string(res.site))
			reg.Counter("exec_stats_packets_received_total", peerL, siteL).Inc()
			if sinkStats != nil {
				reg.Counter("exec_stats_packets_applied_total", peerL, siteL).Inc()
			}
		}
	}
	if sinkStats != nil {
		e.StatsSink(sinkStats)
	}
}

// closeAll retires the execution's channels at this root. Retiring is
// local — no destination holds state past the request it handled — so
// the order does not matter.
func (ex *execution) closeAll() {
	for _, sc := range ex.sites {
		ex.engine.Channels.Close(sc.ch)
	}
	clear(ex.sites)
}

// handleSubplan executes a subplan shipped by a remote root: joins run at
// this peer (the query-shipping semantics), scans at other peers are
// fetched recursively, and the rows stream back on the root's channel.
func (e *Engine) handleSubplan(msg network.Message) ([]byte, error) {
	req, err := channel.DecodeSubplan(msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("exec: bad subplan request: %w", err)
	}
	sub, err := plan.Unmarshal(req.Plan)
	if err != nil {
		return nil, err
	}
	// Serving-side admission: refuse the subplan before spending any
	// work on it when this peer's pool has saturated past the request's
	// priority watermark. The typed rejection travels back as the
	// handler error (delivery is synchronous and in-process, so the
	// root's errors.As sees the OverloadError chain intact) and the root
	// retries after the hint, migrates, or sheds — priority load
	// shedding happens here, lowest classes first.
	qos := admission.QoS{Tenant: req.Tenant, Priority: admission.Priority(req.Priority)}
	if aerr := e.Admission.AdmitWork(qos); aerr != nil {
		e.record(fact{kind: factOverloadRejected}, nil)
		return nil, aerr
	}
	defer e.Admission.Done()
	// The request is the channel's open: accept it now that admission
	// passed. The record lives for this handler only — the final packet
	// ends the stream, and delivery is synchronous.
	in := e.Channels.Accept(msg.From, req.Channel, req.SeqBase, req.Tenant) // the root sent the request
	// Rebuild the root's trace context, if it shipped one: every span this
	// peer opens hangs off a remote@<self> span that is serialized and
	// shipped back on the channel's final packet.
	rsp := obs.RemoteSpan(req.TraceID, req.SpanID, string(e.Self))
	// Execute with this peer as root under its own options, but with
	// data-shipping placement, so the shipped join runs here (terminating
	// the recursion). The shadow's facts fold into this engine's counters.
	opts := e.Options
	opts.Policy = optimizer.DataShipping
	local := &Engine{
		Options: opts,
		Self:    e.Self, Net: e.Net, Channels: e.Channels, Local: e.Local,
		StatsProvider: e.StatsProvider,
		StatsSink:     e.StatsSink,
		Obs:           e.Obs,
		Events:        e.Events,
		serving:       e,
	}
	ex := newExecution(local)
	ex.qos = qos // nested dispatches ship under the root's class
	defer ex.closeAll()
	rows, err := ex.run(sub.Root, rsp)
	rsp.End()
	var traceRec []byte
	if rsp != nil {
		if data, merr := json.Marshal(rsp.Record()); merr == nil {
			traceRec = data
		}
	}
	if err != nil {
		// One final Failure packet ends the stream, carrying the partial
		// remote span record as its trailer.
		if serr := in.Send(channel.Packet{Type: channel.Failure, Final: true, Payload: []byte(err.Error()), Spans: traceRec}); serr != nil {
			return nil, serr
		}
		return []byte("failed"), nil
	}
	if err := e.streamBatches(in, rows, &req, traceRec); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// streamBatches ships the answer upstream as binary batch frames,
// BatchSize rows each. An answer in the serving peer's base ids (a
// scan's, or a join of scans), on the dictionary whose stamp req states,
// goes out in mirror frames: their columns are the base ids as they are,
// and the first frame also carries the base's dictionary entries from
// the count req states the root holds up to the largest id the answer
// references, front-coded as a continuation of the entry before them.
// Any other answer, or one whose missing entries would exceed
// mirrorFallback times the distinct ids it references, goes out in
// self-contained frames, each with its own compacted term dictionary.
// The choice is made once, from the whole answer (mirrorOf).
//
// The last frame is the Final packet that ends the stream: it carries a
// non-empty traceRec (the serialized remote span subtree) and, when the
// version req states is not the current one, the serving peer's
// statistics as trailers, so on the happy path neither costs a packet of
// its own. It names the answer's base's stamp when req states another,
// so the root's next request can ask for mirror frames. At least one Results packet is always sent, so the root
// learns the schema and the stream has a final packet. A positive
// req.ResumeFrom is the root's checkpoint: when it is a valid prefix of
// this evaluation the stream starts after it (acked with a
// "resume-honored" plan-change packet); otherwise the checkpoint is
// rejected ("checkpoint-invalid") and the stream restarts from row 0 so
// the root discards its stale prefix.
//
// Each frame is laid out, then encoded straight into its packet body by
// the send (channel.Packet.Frame), before the next: at most one
// encoded-but-unsent frame exists, and a slow channel holds back the
// framing itself. The first send error ends the stream: the root's
// checkpoint is the contiguous prefix that made it, and a retry resumes
// from there.
func (e *Engine) streamBatches(in *channel.Inbound, rows *rql.Batch, req *channel.SubplanRequest, traceRec []byte) error {
	batch := e.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	start0 := 0
	if resumeFrom := req.ResumeFrom; resumeFrom > 0 {
		pc := channel.PlanChangeInfo{Reason: "resume-honored", Offset: resumeFrom}
		if resumeFrom > rows.Len() {
			// This evaluation produced fewer rows than the root already
			// holds: its checkpoint cannot be a prefix of our stream.
			pc = channel.PlanChangeInfo{Reason: "checkpoint-invalid"}
		} else {
			start0 = resumeFrom
		}
		if err := in.Send(channel.Packet{Type: channel.PlanChange, Payload: channel.AppendPlanChange(nil, pc)}); err != nil {
			return err
		}
	}
	// stamp is the dictionary stamp the final packet tells the root: the
	// answer's base's when the request names another (the root then asks
	// for mirror frames next time), or the statistics' version.
	var statsBody []byte
	var stamp, statsGen uint64
	if base := rows.Base(); base != nil && base.Stamp() != req.Stamp {
		stamp = base.Stamp()
	}
	if e.StatsProvider != nil {
		body, bodyStamp, gen := e.StatsProvider()
		if bodyStamp != req.Stamp || gen+1 != req.StatsGen {
			statsBody, statsGen = body, gen
			stamp = cmp.Or(stamp, bodyStamp)
		}
	}
	mirror, prev := mirrorOf(rows, req)
	var sl *rql.Slicer
	if mirror == nil {
		sl = rql.NewSlicer(rows)
	}
	for start, last := start0, false; !last; start += batch {
		end := min(start+batch, rows.Len())
		last = end >= rows.Len()
		var frame *rql.Frame
		var err error
		if mirror != nil {
			frame, err = rql.NewMirrorFrame(rows, start, end, mirror, prev)
			// Later frames ship no entries: the root holds them now.
			mirror = &rql.Mirror{Stamp: mirror.Stamp, Offset: mirror.Offset + len(mirror.Entries)}
		} else {
			frame, err = rql.NewFrame(sl.Slice(start, end))
		}
		if err != nil {
			// The root would refuse this frame as malformed: end the
			// stream with the reason instead.
			return in.Send(channel.Packet{Type: channel.Failure, Final: true, Payload: []byte(err.Error()), Spans: traceRec})
		}
		pkt := channel.Packet{Type: channel.Results, Rows: end - start, Frame: frame}
		if last {
			pkt.Final, pkt.Spans = true, traceRec
			pkt.Stats, pkt.StatsGen, pkt.Stamp = statsBody, statsGen, stamp
		}
		if err := in.Send(pkt); err != nil {
			return err
		}
	}
	return nil
}
