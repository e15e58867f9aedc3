// Package exec is SQPeer's distributed plan executor (paper §2.4–2.5):
// it walks a distributed plan at a root peer, deploys one ubQL-style
// channel per contributing peer, ships subplans, gathers result packets,
// and combines them with unions (horizontal distribution) and joins
// (vertical distribution). Join placement follows the configured shipping
// policy. On peer failure the executor first attempts the paper's
// plan-change protocol: cancel only the affected plan subtree, pick an
// alternate peer from a fresh quarantine-aware routing snapshot, and
// re-dispatch just that subplan, splicing its rows with the retained
// siblings (checkpointed by per-channel sequence watermarks and per-leaf
// row ledgers). Only when no alternate peer covers the subtree does it
// fall back to the legacy ubQL semantics — discard intermediate results,
// replan around the obsolete peer, restart.
package exec

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

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

// LocalSource evaluates scan subqueries against a peer's local base.
type LocalSource interface {
	// EvalScan evaluates the conjunction of path patterns locally,
	// returning the joined rows.
	EvalScan(patterns []pattern.PathPattern) *rql.ResultSet
}

// BatchSource is the columnar upgrade of LocalSource: a source that can
// evaluate a scan straight into a batch, skipping the per-row map
// materialization EvalScan pays. The engine uses it at the scan leaf
// whenever the source offers it; a plain LocalSource's rows are
// converted into a batch there instead.
type BatchSource interface {
	// EvalScanBatch evaluates the conjunction of path patterns locally,
	// returning the joined rows in columnar form. The scan interns into
	// store — the calling execution's shared dictionary — so the result
	// composes with the execution's other batches without remapping; a
	// nil store yields a self-contained batch.
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
// default: data shipping, GOMAXPROCS branches, no deadline, no
// retries, no partial answers, 256-row frames, migration on.
type Options struct {
	// Policy places joins; HybridShipping consults Engine.Cost.
	Policy optimizer.ShippingPolicy
	// Parallelism bounds how many plan branches one Execute evaluates
	// concurrently (horizontal distribution, §2.4: per-path-pattern unions
	// over peers are independent). 0 or negative means GOMAXPROCS; 1
	// recovers strictly sequential evaluation. Results are deterministic
	// regardless of the setting: branches are collected per input and
	// merged in input order.
	Parallelism int
	// DeadlineMS, when positive, bounds each dispatch leg on the simulated
	// clock: a delivery slower than this (hung or gray-failed peer) fails
	// with a transient error instead of wedging a pool token. Upstream
	// packets are bounded separately via Channels.DeadlineMS.
	DeadlineMS float64
	// MaxRetries is how many times a transiently-failed dispatch is
	// retried (with exponential backoff from retryBackoffMS) before the
	// peer is declared obsolete and replanned around. 0 — the historical
	// behaviour — disables retries.
	MaxRetries int
	// AllowPartial opts into graceful degradation: when replanning leaves
	// unresolved holes, the engine prunes them, executes the answerable
	// remainder, and returns the rows with a Completeness annotation
	// naming the unanswered patterns — instead of failing the query.
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
	// streamWindow bounds the encoded-but-unsent frames when streaming
	// batches upstream: the encoder blocks once this many wait, so a slow
	// channel applies backpressure instead of buffering the whole result.
	streamWindow = 4
)

// Engine executes distributed plans at one peer. The same engine serves
// both roles: root of its own queries, and remote evaluator of subplans
// shipped by other peers (registered under the "exec.subplan" and
// "exec.collect" message kinds).
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
	Local LocalSource
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
	// an encoded stats.MarshalPeerStats body, piggybacked as the Stats
	// trailer of the final packet of every answered subplan (paper §2.4:
	// packets "can also contain ... statistics useful for query
	// optimization"). The provider may hand back the same body for as
	// long as the statistics are unchanged; the engine never mutates it.
	StatsProvider func() []byte
	// StatsSink, when set, receives statistics arriving on channels this
	// engine roots, keeping the local catalog fresh.
	StatsSink func(*stats.PeerStats)
	// Tracer, when set, opens a query trace per Execute call (unless the
	// caller supplies a parent span via ExecuteAnnotatedQoS): spans for
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
	// engine the subplan arrived at.
	serving *Engine
}

// parallelism resolves the engine's effective branch parallelism.
func (e *Engine) parallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// patternKey renders a node's pattern ids, deduplicated and sorted — the
// site-independent identity of the data slice a dispatch fetches.
func patternKey(n plan.Node) string {
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
	sort.Strings(ids)
	return strings.Join(ids, "+")
}

// NewEngine wires an engine for a peer into the network, registering the
// subplan-execution handler.
func NewEngine(self pattern.PeerID, net *network.Network, ch *channel.Manager, local LocalSource) *Engine {
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
// final result set, applying the query pattern's projections. Plans with
// holes are rejected with *HoleError (unless AllowPartial). With a Router
// configured, peer failures trigger replanning (up to maxReplans) before
// surfacing as *PeerFailure. Callers that opted into AllowPartial and
// need the completeness annotation use ExecuteAnnotated; this wrapper
// returns the rows alone.
func (e *Engine) Execute(p *plan.Plan) (*rql.ResultSet, error) {
	res, err := e.ExecuteAnnotated(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// ExecuteAnnotated is Execute returning the completeness annotation: the
// adaptation loop of §2.5 with retry/backoff underneath it (transient
// dispatch failures retry before a peer is declared obsolete), the
// throughput monitor as a replan trigger, and — under AllowPartial —
// hole pruning instead of failure when replanning cannot cover every
// pattern.
func (e *Engine) ExecuteAnnotated(p *plan.Plan) (*Result, error) {
	return e.ExecuteAnnotatedQoS(p, nil, admission.QoS{})
}

// ExecuteAnnotatedQoS is ExecuteAnnotated under a caller-supplied trace
// span and an explicit QoS. The peer layer passes its query span so
// routing, planning and execution share one trace; with a nil span and a
// configured Tracer, the engine opens a standalone trace for the call.
// The tenant and priority ride every channel open and subplan request
// this execution ships, so serving peers admit (or shed) the work under
// the same class the root charged at its facade. The zero QoS is an
// untagged Low-priority query — indistinguishable from the historical
// behaviour unless an admission controller is configured somewhere.
func (e *Engine) ExecuteAnnotatedQoS(p *plan.Plan, span *obs.Span, qos admission.QoS) (*Result, error) {
	rows, comp, err := e.ExecuteBatch(p, span, qos)
	if err != nil {
		return nil, err
	}
	if rows != nil && p.Query != nil && len(p.Query.Projections) > 0 {
		rows = rows.Project(p.Query.Projections)
	}
	// The facade boundary: batches become the public ResultSet.
	return &Result{Rows: rows.ResultSet(), Completeness: comp}, nil
}

// ExecuteBatch is ExecuteAnnotatedQoS stopped short of the facade: it
// returns the answer as the executor's batch over every variable the
// plan binds, unprojected, with its completeness annotation. A nil batch
// means nothing was answerable. The peer facade finishes the answer on
// it — WHERE filters, then projection, then LIMIT — so a filter on a
// variable outside SELECT still sees its bindings, and the rows become
// row maps once, at the end.
func (e *Engine) ExecuteBatch(p *plan.Plan, span *obs.Span, qos admission.QoS) (*rql.Batch, Completeness, error) {
	if span == nil && e.Tracer != nil {
		tr := e.Tracer.StartTrace("execute@"+string(e.Self), string(e.Self))
		span = tr.Root()
		defer span.End()
	}
	current := p
	var unanswered []Unanswered
	unansweredSeen := map[string]bool{}
	note := func(id, reason string) {
		if !unansweredSeen[id] {
			unansweredSeen[id] = true
			unanswered = append(unanswered, Unanswered{PatternID: id, Reason: reason})
		}
	}
	// fetched maps each dispatched (site, pattern set) to the rows its
	// first completed dispatch delivered; a later dispatch of the same
	// pair is re-fetched work (what restarts pay and migration avoids).
	fetched := map[string]int{}
	e.mu.Lock()
	e.lastLedger = nil
	e.mu.Unlock()
	var lastFailure error
	for attempt := 0; ; attempt++ {
		if holes := plan.Holes(current.Root); len(holes) > 0 {
			ids := make([]string, len(holes))
			for i, h := range holes {
				ids[i] = h.Patterns[0].ID
			}
			if !e.AllowPartial {
				return nil, Completeness{}, &HoleError{PatternIDs: ids}
			}
			reason := "no peer advertises this pattern"
			if lastFailure != nil {
				reason = lastFailure.Error()
			}
			if e.Router == nil {
				// Graceful degradation without a router: cut the
				// unanswerable patterns, record why, execute what remains.
				pruned, removed := plan.PruneHoles(current.Root)
				for _, id := range removed {
					note(id, reason)
				}
				if pruned == nil {
					// Nothing answerable at all: an empty, fully-annotated
					// partial result.
					e.record(fact{kind: factPartialAnswer}, nil)
					return nil, Completeness{Complete: false, Unanswered: sortUnanswered(unanswered)}, nil
				}
				current = &plan.Plan{Root: pruned, Query: current.Query}
			}
			// With a router, holes stay in the plan: the execution fills
			// them mid-flight from fresh advertisements (upgrading the
			// answer's completeness without a restart) or reports them
			// unanswered with this reason.
		}
		rel, runtimeUn, err := e.executeOnce(current, attempt, lastFailure, fetched, span, qos)
		if err == nil {
			// The paper's literal run-time trigger: peers whose channels
			// streamed too few rows this round are replanned around, same
			// path as a hard failure.
			if slow := e.slowPeers(); len(slow) > 0 && e.Router != nil && attempt < maxReplans {
				if span != nil {
					span.Annotate(fmt.Sprintf("throughput.flagged.%d", attempt), peersCSV(slow))
				}
				obsolete := map[pattern.PeerID]bool{}
				for _, peer := range slow {
					obsolete[peer] = true
					e.dropFromRouting(peer)
				}
				replanned, rerr := optimizer.Replan(current, obsolete, e.Router)
				if rerr == nil && !plan.Equal(replanned.Root, current.Root) {
					rsp := span.Child(obs.KindReplan, fmt.Sprintf("replan.%d", attempt))
					rsp.Annotate("trigger", "throughput")
					rsp.Annotate("obsolete", peersCSV(slow))
					e.record(fact{kind: factReplan, trigger: "throughput", obsolete: peersCSV(slow)}, rsp)
					rsp.End()
					current = replanned
					continue // ubQL discard: drop rs, re-execute
				}
				// Replanning can't improve on this round (no alternative or
				// same plan): keep the rows we already collected.
			}
			// These rows are the answer: holes this round could not fill
			// mid-flight are what the result is missing.
			for _, u := range runtimeUn {
				note(u.PatternID, u.Reason)
			}
			comp := Completeness{Complete: len(unanswered) == 0, Unanswered: sortUnanswered(unanswered)}
			if len(unanswered) > 0 {
				e.record(fact{kind: factPartialAnswer}, nil)
			}
			return rel, comp, nil
		}
		pf, ok := failureOf(err)
		if !ok || e.Router == nil || attempt >= maxReplans {
			return nil, Completeness{}, err
		}
		// ubQL adaptation: discard intermediates, drop the obsolete peer
		// from our routing knowledge, replan, restart.
		e.dropFromRouting(pf.Peer)
		rsp := span.Child(obs.KindReplan, fmt.Sprintf("replan.%d", attempt))
		rsp.Annotate("trigger", "failure")
		rsp.Annotate("obsolete", string(pf.Peer))
		rsp.End()
		replanned, rerr := optimizer.Replan(current, map[pattern.PeerID]bool{pf.Peer: true}, e.Router)
		if rerr != nil {
			if replanned != nil && e.AllowPartial {
				// The replan left holes; the loop top prunes them into the
				// completeness annotation and runs the rest.
				lastFailure = err
				// On the root span: rsp has Ended.
				e.record(fact{kind: factReplan, trigger: "failure-partial", obsolete: string(pf.Peer)}, span)
				current = replanned
				continue
			}
			return nil, Completeness{}, fmt.Errorf("exec: adaptation after %v: %w", err, rerr)
		}
		e.record(fact{kind: factReplan, trigger: "failure", obsolete: string(pf.Peer)}, span)
		current = replanned
	}
}

// sortUnanswered orders a completeness annotation by pattern id. The
// note() dedupe keeps ids unique, but ids accumulate in discovery order
// across attempts — a later attempt can add a smaller id after a larger
// one — so the Completeness contract ("sorted by id") needs this final
// pass.
func sortUnanswered(un []Unanswered) []Unanswered {
	sort.Slice(un, func(i, j int) bool { return un[i].PatternID < un[j].PatternID })
	return un
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

func failureOf(err error) (*PeerFailure, bool) {
	for e := err; e != nil; {
		if pf, ok := e.(*PeerFailure); ok {
			return pf, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		e = u.Unwrap()
	}
	return nil, false
}

// execution is the per-Execute state: one channel per contacted peer, a
// single-flight dispatch cache, and the bounded branch pool. One execution
// may run many goroutines, but each Execute call owns its execution
// exclusively, so concurrent Execute calls on one engine never share
// per-execution state.
type execution struct {
	engine *Engine
	// store is the execution's shared term dictionary: scan leaves intern
	// into it, decoded result frames are rebased onto it, so every batch
	// this execution composes agrees on ids and the operators above the
	// leaves never re-intern a term (see rql.TermStore).
	store *rql.TermStore
	// attempt is the ExecuteAnnotated restart round this execution runs in
	// (ledger bookkeeping).
	attempt int
	// holeReason explains why holes in the plan are unanswerable, for the
	// completeness annotation when mid-flight filling fails.
	holeReason string
	// fetched is ExecuteAnnotated's cross-attempt (site, pattern set) →
	// rows map backing the refetch accounting; guarded by mu (attempts
	// run one at a time, branches within an attempt race).
	fetched map[string]int
	// qos is the tenant/priority the execution runs under: stamped onto
	// every channel open and subplan request, and consulted for
	// root-side shedding. Immutable after newExecution's caller sets it.
	qos admission.QoS

	mu    sync.Mutex
	sites map[pattern.PeerID]*siteChan
	inbox map[uint32]*remoteResult // channel number -> collector
	// cache single-flights remote dispatches within this execution:
	// optimized plans repeat the same scan under several union branches,
	// and with branches racing, the first to ask ships the subplan while
	// the rest wait on its entry.
	cache map[string]*cacheEntry
	// migrations counts mid-flight subplan migrations this round, bounded
	// by maxMigrations.
	migrations int
	// completedRows sums rows delivered by completed dispatches this
	// round — the sibling work a migration retains.
	completedRows int
	// unanswered records holes that could not be filled mid-flight:
	// pattern id → reason.
	unanswered map[string]string

	// sem is the worker pool, holding Parallelism tokens. Union/join
	// fan-out spawns one goroutine per branch (tree structure is cheap
	// and plan-bounded), but the actual leaf work — local scans and
	// remote dispatches — blocks acquiring a token, so at most
	// Parallelism leaves execute at once. Token holders never acquire a
	// second token (leaves don't recurse into this pool), which is what
	// makes the blocking acquire deadlock-free. nil when Parallelism is
	// 1: then fan-out is skipped entirely and evaluation is the classic
	// sequential walk.
	sem chan struct{}
	// cancel is closed when any branch fails, making sibling branches
	// finish early instead of shipping work whose result will be
	// discarded (ubQL semantics: first failure aborts the round).
	cancel     chan struct{}
	cancelOnce sync.Once
}

// siteChan is the per-peer channel slot: the deployed channel plus a
// mutex serializing dispatches, so concurrent branches targeting the same
// peer share one channel (the paper deploys exactly one channel per
// contributing peer) without interleaving their request/collect cycles.
type siteChan struct {
	ch *channel.Channel
	mu sync.Mutex
}

// cacheEntry is a single-flight memo: done closes when the owning branch
// has filled rows/err.
type cacheEntry struct {
	done chan struct{}
	rows *rql.Batch
	err  error
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

// errCancelled aborts sibling branches after another branch failed; the
// failing branch's own error is what surfaces.
var errCancelled = errors.New("exec: execution cancelled")

func newExecution(e *Engine) *execution {
	ex := &execution{
		engine:     e,
		store:      rql.NewTermStore(),
		fetched:    map[string]int{},
		sites:      map[pattern.PeerID]*siteChan{},
		inbox:      map[uint32]*remoteResult{},
		cache:      map[string]*cacheEntry{},
		unanswered: map[string]string{},
		holeReason: "no peer advertises this pattern",
		cancel:     make(chan struct{}),
	}
	if par := e.parallelism(); par > 1 {
		ex.sem = make(chan struct{}, par)
	}
	return ex
}

// acquire takes a worker token (no-op when sequential); release returns
// it. Leaf work — the expensive part of a branch — runs between them.
func (ex *execution) acquire() {
	if ex.sem != nil {
		ex.sem <- struct{}{}
	}
}

func (ex *execution) release() {
	if ex.sem != nil {
		<-ex.sem
	}
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
	ex.mu.Lock()
	un := make([]Unanswered, 0, len(ex.unanswered))
	for id, reason := range ex.unanswered {
		un = append(un, Unanswered{PatternID: id, Reason: reason})
	}
	ex.mu.Unlock()
	sort.Slice(un, func(i, j int) bool { return un[i].PatternID < un[j].PatternID })
	return rows, un, nil
}

// abort makes every in-flight branch of this execution finish early.
func (ex *execution) abort() {
	ex.cancelOnce.Do(func() { close(ex.cancel) })
}

// cancelled reports whether the execution has been aborted.
func (ex *execution) cancelled() bool {
	select {
	case <-ex.cancel:
		return true
	default:
		return false
	}
}

// runAll evaluates the inputs of a union or join, fanning out across the
// branch pool. Results are collected per input index and returned in input
// order, so the caller's merge is deterministic no matter how the branches
// interleave. On failure the lowest-index real error wins (matching what
// sequential evaluation would have surfaced) and siblings are cancelled.
func (ex *execution) runAll(inputs []plan.Node, parent *obs.Span) ([]*rql.Batch, error) {
	// Branch spans are pre-created here, in input order, BEFORE any
	// goroutine is spawned: span creation order (and therefore the
	// exported layout) is a function of the plan alone, no matter how the
	// branches interleave at run time. Sibling span names are made unique
	// by the branch index prefix.
	var spans []*obs.Span
	if parent != nil {
		spans = make([]*obs.Span, len(inputs))
		for i, in := range inputs {
			spans[i] = parent.Child(branchKind(in), fmt.Sprintf("b%02d.%s", i, branchName(in)))
		}
		defer endAll(spans)
	}
	if len(inputs) == 1 || ex.sem == nil {
		// Sequential fast path: no goroutines, stop at the first error.
		out := make([]*rql.Batch, len(inputs))
		for i, in := range inputs {
			var bsp *obs.Span
			if spans != nil {
				bsp = spans[i]
			}
			rs, err := ex.run(in, bsp)
			if err != nil {
				ex.abort()
				return nil, err
			}
			out[i] = rs
		}
		return out, nil
	}
	// One goroutine per branch: goroutines only carry the tree structure
	// (cheap, bounded by plan size); the worker pool caps the expensive
	// leaf work, which each branch acquires a token for when it reaches a
	// scan or dispatch. Keeping structural nodes out of the pool matters:
	// a union parent that held a token while waiting on its children would
	// starve its own siblings' leaves.
	results := make([]*rql.Batch, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		var bsp *obs.Span
		if spans != nil {
			bsp = spans[i]
		}
		wg.Add(1)
		go func(i int, in plan.Node, bsp *obs.Span) {
			defer wg.Done()
			results[i], errs[i] = ex.run(in, bsp)
			if errs[i] != nil {
				ex.abort()
			}
		}(i, in, bsp)
	}
	wg.Wait()
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, errCancelled) {
			return nil, err
		}
		if fallback == nil {
			fallback = err
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	return results, nil
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
// annihilate sibling rows — the same collapse semantics as PruneHoles).
// sp is the node's own span (the branch span its parent pre-created, or
// the attempt span at the plan root); nil when tracing is off.
func (ex *execution) run(n plan.Node, sp *obs.Span) (*rql.Batch, error) {
	if ex.cancelled() {
		return nil, errCancelled
	}
	e := ex.engine
	switch v := n.(type) {
	case *plan.Scan:
		if v.IsHole() {
			return ex.runHole(v, sp)
		}
		if v.Peer == e.Self {
			ex.acquire()
			defer ex.release()
			if ex.cancelled() {
				return nil, errCancelled
			}
			e.record(fact{kind: factLocalScan}, nil)
			// The scan leaf is where rows enter the engine's data plane:
			// they are born a batch (BatchSource) or become one here, so
			// every union/join above runs vectorized.
			var b *rql.Batch
			if bs, ok := e.Local.(BatchSource); ok {
				b = bs.EvalScanBatch(v.Patterns, ex.store)
			} else {
				b = rql.BatchOf(e.Local.EvalScan(v.Patterns))
			}
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

// runHole resolves a `@?` leaf mid-flight: advertisement updates learned
// since the plan was generated may cover it now, in which case the hole
// becomes a dispatched subplan (the paper's plan-change packets carry
// exactly this upgrade) while sibling branches keep streaming. Unfillable
// holes become absent branches under AllowPartial, errors otherwise.
func (ex *execution) runHole(v *plan.Scan, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	if e.Router != nil {
		ann := e.Router.RoutePatterns(v.Patterns)
		sub := plan.SplitHoles(&plan.Plan{Root: v})
		filled, nfilled := plan.FillHoles(sub, ann)
		if nfilled > 0 && !plan.HasHoles(filled.Root) {
			e.record(fact{kind: factHoleFill, count: nfilled}, nil)
			hsp := sp.Child(obs.KindHoleFill, "hole-fill")
			rows, err := ex.run(filled.Root, hsp)
			hsp.End()
			return rows, err
		}
	}
	if e.AllowPartial {
		ex.mu.Lock()
		for _, id := range v.PatternIDs() {
			if _, ok := ex.unanswered[id]; !ok {
				ex.unanswered[id] = ex.holeReason
			}
		}
		ex.mu.Unlock()
		return nil, nil // absent
	}
	return nil, &HoleError{PatternIDs: v.PatternIDs()}
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
// the channel. Identical dispatches from concurrent branches are
// single-flighted: the first branch ships, the rest wait on its cache
// entry.
func (ex *execution) runRemote(site pattern.PeerID, n plan.Node, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	cacheKey := string(site) + "\x00" + n.String()
	ex.mu.Lock()
	if ent, ok := ex.cache[cacheKey]; ok {
		ex.mu.Unlock()
		if sp != nil {
			sp.Annotate("singleflight", "hit")
		}
		// Waiters hold no pool token, so the owner can always acquire one
		// and fill the entry — waiting here cannot deadlock.
		<-ent.done
		return ent.rows, ent.err
	}
	ent := &cacheEntry{done: make(chan struct{})}
	ex.cache[cacheKey] = ent
	ex.mu.Unlock()
	// Root-side load shedding: once this peer's pool has saturated past
	// the execution's priority watermark (which only happens when
	// higher classes piled on top — admission stops same-class entry at
	// the line), a subplan not yet dispatched is converted into an
	// explicit completeness hole rather than queued into the overload.
	// The query answers partially and immediately instead of timing
	// out. Requires AllowPartial; High-priority work never sheds
	// (ShouldShed guarantees it).
	if e.AllowPartial && e.Admission.ShouldShed(ex.qos.Priority) {
		if ok := ex.shedSubplan(site, n, sp); ok {
			ent.rows, ent.err = nil, nil // nil batch: the absent-branch sentinel
			close(ent.done)
			return ent.rows, ent.err
		}
	}
	// Proactive plan change: a site the throughput monitor already flagged
	// is migrated away from before we sink a dispatch into it. If no
	// alternate peer covers the subtree, dispatch to the slow site anyway.
	if tm := e.Throughput; tm != nil && e.Router != nil && tm.IsFlagged(site) {
		if rows, migrated, merr := ex.tryMigrate(site, n, sp); migrated {
			ent.rows, ent.err = rows, merr
			close(ent.done)
			return ent.rows, ent.err
		}
	}
	ex.acquire()
	if ex.cancelled() {
		ent.err = errCancelled
	} else {
		dsp := sp.ChildAt(obs.KindDispatch, "dispatch@"+string(site), string(site))
		ent.rows, ent.err = ex.dispatchRetry(site, n, dsp)
		dsp.End()
	}
	ex.release()
	// Surgical recovery: a terminal peer failure migrates just this
	// subtree to an alternate peer instead of failing the round. The pool
	// token is released first — the migrated subtree re-enters ex.run and
	// acquires its own tokens (token holders never acquire twice).
	if ent.err != nil && !errors.Is(ent.err, errCancelled) {
		if pf, ok := failureOf(ent.err); ok && pf.Peer == site {
			if rows, migrated, merr := ex.tryMigrate(site, n, sp); migrated {
				ent.rows, ent.err = rows, merr
			}
		}
	}
	close(ent.done)
	return ent.rows, ent.err
}

// shedSubplan converts a not-yet-dispatched remote subtree into
// completeness holes: every scan pattern under it is recorded
// unanswered with a shed reason, the tenant is charged a shed, and the
// ledger gets a "shed" entry so the overload experiment can prove shed
// work surfaced as partial answers rather than bare timeouts. Returns
// false when the subtree carries no patterns to annotate (nothing to
// shed honestly — the caller dispatches normally).
func (ex *execution) shedSubplan(site pattern.PeerID, n plan.Node, sp *obs.Span) bool {
	e := ex.engine
	var ids []string
	seen := map[string]bool{}
	for _, s := range plan.Scans(n) {
		for _, id := range s.PatternIDs() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return false
	}
	reason := fmt.Sprintf("shed: overload at %s (%s)", e.Self, ex.qos.Priority)
	ex.mu.Lock()
	for _, id := range ids {
		if _, ok := ex.unanswered[id]; !ok {
			ex.unanswered[id] = reason
		}
	}
	ex.mu.Unlock()
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
	return true
}

// tryMigrate is the plan-change protocol's root-side decision: quarantine
// the failed (or flagged) site exactly as a restart would, cut its scans
// out of the subtree, route the uncovered patterns against a fresh
// quarantine-aware snapshot, and — when every pattern found an alternate
// peer — re-dispatch only the rewritten subtree. Sibling rows already
// collected stay where they are; the single-flight cache splices the
// migrated rows in their place. Returns migrated=false when the subtree
// has no alternate: the caller then falls back to the legacy
// discard-replan-restart path (or, for a flagged-but-alive site, just
// dispatches to it).
//
// Ordering note: each migration quarantines its site BEFORE routing. A
// migrated branch that lands on a sibling's in-flight cache entry
// therefore routed before that sibling quarantined its own site — so a
// cycle of branches waiting on each other's entries would need every
// route to precede every quarantine, which the per-branch
// quarantine-then-route order makes impossible. The wait graph stays
// acyclic no matter how concurrent migrations interleave.
func (ex *execution) tryMigrate(site pattern.PeerID, n plan.Node, sp *obs.Span) (*rql.Batch, bool, error) {
	e := ex.engine
	if e.Router == nil || ex.cancelled() || e.DisableMigration {
		return nil, false, nil
	}
	// The same quarantine the restart path applies, so migration and
	// restart agree on which peers the re-route may use — required for
	// the migrated answer to equal the restarted one.
	e.dropFromRouting(site)
	sub := &plan.Plan{Root: n}
	excluded, cut := plan.ExcludePeers(sub, map[pattern.PeerID]bool{site: true})
	if cut == 0 {
		return nil, false, nil
	}
	var holePatterns []pattern.PathPattern
	for _, h := range plan.Holes(excluded.Root) {
		holePatterns = append(holePatterns, h.Patterns...)
	}
	ann := e.Router.RoutePatterns(holePatterns)
	filled, _ := plan.FillHoles(plan.SplitHoles(excluded), ann)
	if plan.HasHoles(filled.Root) {
		// Decision rule: no alternate peer covers the subtree → migration
		// cannot help; the caller surfaces the failure and the legacy
		// restart (or hole pruning) takes over.
		return nil, false, nil
	}
	ex.mu.Lock()
	if ex.migrations >= maxMigrations {
		ex.mu.Unlock()
		return nil, false, nil
	}
	ex.migrations++
	retained := ex.completedRows
	ex.mu.Unlock()
	msp := sp.Child(obs.KindMigrate, "migrate-from@"+string(site))
	if msp != nil {
		msp.Annotate("retainedRows", fmt.Sprintf("%d", retained))
	}
	e.record(fact{kind: factMigrate, count: retained, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: patternKey(n), Attempt: ex.attempt,
	}}, msp)
	rows, err := ex.run(filled.Root, msp)
	msp.End()
	if err == nil && rows == nil {
		rows = rql.NewBatch()
	}
	return rows, true, err
}

// dispatchRetry wraps dispatch with the transient-failure retry loop:
// a dispatch that failed for a reason that may heal (drop, deadline,
// partition, crash) is retried up to MaxRetries times with doubling
// backoff charged to the logical clock, resetting the site's failed
// channel so each attempt opens fresh. Outcomes feed the health tracker.
//
// Retries are checkpointed: rows that reached us before the failure are a
// contiguous prefix (the destination aborts streaming at its first failed
// send, and the channel watermark proves contiguity), so the retry asks
// the destination to resume after them. The destination acknowledges with
// a PlanChange packet — "resume-honored" keeps the prefix, "checkpoint-
// invalid" discards it and re-streams from scratch.
func (ex *execution) dispatchRetry(site pattern.PeerID, n plan.Node, leaf *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	backoff := float64(retryBackoffMS)
	var partial *rql.Batch // checkpointed rows from failed attempts
	checkpoint := 0        // contiguous row prefix already delivered
	resumed := false
	pendingBackoffMS := 0.0 // backoff owed to the next try's span
	var err error
	for try := 0; ; try++ {
		// The first try streams under a "stream" span; each retry gets a
		// "retry" span carrying its backoff charge plus the re-sent
		// transfer — so the retry/backoff phase prices what the failure
		// cost, not just the waiting.
		kind, name := obs.KindStream, "stream"
		if try > 0 {
			kind, name = obs.KindRetry, fmt.Sprintf("retry.%d", try)
		}
		ssp := leaf.Child(kind, name)
		ssp.ChargeMS(pendingBackoffMS)
		pendingBackoffMS = 0
		var res *remoteResult
		res, err = ex.dispatch(site, n, try, checkpoint, ssp)
		ssp.End()
		if res != nil {
			switch {
			case res.restarted:
				// The destination rejected our checkpoint and re-streamed
				// from row 0: drop the retained prefix (set-union keeps the
				// answer right either way; the ledger keeps the accounting
				// honest).
				e.record(fact{kind: factCheckpointRejected, count: checkpoint}, nil)
				ssp.Annotate("checkpoint", "invalid")
				partial, checkpoint, resumed = nil, 0, false
			case checkpoint > 0 && res.resumed:
				resumed = true
				ssp.Annotate("checkpoint", "resumed")
				// On the leaf span: ssp has already Ended.
				e.record(fact{kind: factResume, site: site, count: checkpoint}, leaf)
			}
			if rel := res.gathered(); rel != nil {
				if partial == nil {
					partial = rel
				} else {
					// Retried tries re-stream after the checkpoint, so the
					// new segment extends (never overlaps) the retained
					// prefix; union keeps the set semantics honest if a
					// destination ever re-sends a boundary row.
					partial = partial.Union(rel)
				}
			}
			checkpoint += res.rowCount
		}
		if err == nil {
			if e.Health != nil {
				e.Health.ReportSuccess(site)
			}
			if partial == nil {
				partial = rql.NewBatch()
			}
			ex.recordComplete(site, n, checkpoint, res.watermark, resumed)
			return partial, nil
		}
		if try >= e.MaxRetries || !network.Transient(err) || ex.cancelled() {
			break
		}
		wait, hinted := backoff, false
		if admission.IsOverload(err) {
			hint, ok := admission.RetryAfterHint(err)
			if !ok {
				// Hopeless rejection: capacity frees up after the query's
				// deadline budget. Fail now so migration (or shedding)
				// takes over instead of burning retries.
				break
			}
			// The destination said when its capacity frees up: honor its
			// retry-after instead of the blind doubling curve.
			wait, hinted = hint, true
		} else {
			backoff *= 2
		}
		e.record(fact{kind: factRetry, site: site, try: try + 1, waitMS: wait, hinted: hinted}, leaf)
		pendingBackoffMS = wait
		ex.resetSite(site)
	}
	// Terminal failure: the checkpointed prefix is abandoned (a migration
	// or restart will fetch the subtree elsewhere, from scratch).
	e.record(fact{kind: factFailed, count: checkpoint, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: patternKey(n),
		Rows: checkpoint, Attempt: ex.attempt,
	}}, nil)
	if e.Health != nil {
		e.Health.ReportFailure(site)
	}
	return nil, err
}

// recordComplete books a finished dispatch into the ledger, the refetch
// accounting and the round's retained-rows counter.
func (ex *execution) recordComplete(site pattern.PeerID, n plan.Node, rows, watermark int, resumed bool) {
	e := ex.engine
	key := patternKey(n)
	slice := string(site) + "\x00" + key
	ex.mu.Lock()
	_, again := ex.fetched[slice]
	if !again {
		ex.fetched[slice] = rows
	}
	ex.completedRows += rows
	ex.mu.Unlock()
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

// resetSite retires a site's channel slot — every dispatch failure marked
// the channel failed, so the retry must deploy a fresh channel rather
// than reuse the slot.
func (ex *execution) resetSite(site pattern.PeerID) {
	ex.mu.Lock()
	sc, ok := ex.sites[site]
	delete(ex.sites, site)
	ex.mu.Unlock()
	if ok {
		ex.engine.Channels.Close(sc.ch)
	}
}

// dispatch performs one subplan shipment and collects the streamed reply.
// It returns the remoteResult even on failure: the rows that arrived
// before the break are a contiguous checkpoint the retry loop keeps.
// sp is the try's stream/retry span: the request leg's transfer time is
// charged to it here, reply packets are charged by the packet collector,
// and the remote's shipped span record is grafted under it.
func (ex *execution) dispatch(site pattern.PeerID, n plan.Node, try, resumeFrom int, sp *obs.Span) (*remoteResult, error) {
	e := ex.engine
	sc := ex.channelTo(site)
	sub := &plan.Plan{Root: n, Query: nil}
	data, err := plan.Marshal(sub)
	if err != nil {
		return nil, fmt.Errorf("exec: marshal subplan: %w", err)
	}
	// Capture the link before taking any lock: the packet collector prices
	// reply transfers from this snapshot, and LinkBetween takes the
	// network's own lock.
	var link stats.Link
	if sp != nil {
		link = e.Net.LinkBetween(e.Self, site)
	}
	// One request/collect cycle at a time per channel: the inbox collector
	// is keyed by channel number, and the request's sequence base is the
	// channel's watermark, so concurrent branches targeting the same peer
	// take turns on its channel.
	sc.mu.Lock()
	defer sc.mu.Unlock()
	// The request deploys the channel at the destination. A positive
	// resumeFrom asks the destination to skip that many leading rows; it
	// acknowledges with a PlanChange packet before streaming. SeqBase
	// continues the channel's numbering, so the packets of a replayed
	// request land at or below the watermark and are dropped as
	// duplicates.
	req := channel.SubplanRequest{Channel: sc.ch.Num, SeqBase: sc.ch.Watermark(), Plan: data,
		ResumeFrom: resumeFrom, Tenant: ex.qos.Tenant, Priority: int(ex.qos.Priority)}
	if sp != nil {
		req.TraceID = sp.TraceID()
		req.SpanID = sp.Path()
	}
	msg := network.Message{Kind: "exec.subplan", Payload: channel.AppendSubplan(nil, &req)}
	if sp != nil {
		sp.ChargeMS(link.TransferMS(msg.Size()))
	}
	ex.mu.Lock()
	ex.inbox[sc.ch.Num] = &remoteResult{site: site, span: sp, link: link}
	ex.mu.Unlock()
	e.record(fact{kind: factShipped, site: site, try: try}, sp)
	if tm := e.Throughput; tm != nil {
		tm.Track(site)
	}
	//lint:allow locksafe per-site channel serialization is the point of sc.mu, and SendWithin is deadline-bounded so the hold is finite
	sendErr := e.Net.SendWithin(e.Self, site, msg.Kind, msg.Payload, e.DeadlineMS)
	// Delivery is synchronous: by the time Send returns, the remote has
	// executed and its packets have been dispatched to our collector. Even
	// a failed send may have let packets through first (e.g. a crash
	// mid-stream), so always collect what arrived.
	ex.mu.Lock()
	res := ex.inbox[sc.ch.Num]
	delete(ex.inbox, sc.ch.Num)
	ex.mu.Unlock()
	res.watermark = sc.ch.Watermark()
	if sendErr != nil {
		e.Channels.MarkFailed(sc.ch)
		return res, &PeerFailure{Peer: site, Err: sendErr}
	}
	if res.err != nil {
		e.Channels.MarkFailed(sc.ch)
		return res, &PeerFailure{Peer: site, Err: res.err}
	}
	if !res.done {
		e.Channels.MarkFailed(sc.ch)
		return res, &PeerFailure{Peer: site, Err: fmt.Errorf("result stream ended without a final packet")}
	}
	return res, nil
}

// channelTo returns (deploying if necessary) the execution's channel slot
// for a peer — one channel per peer, as in the paper. Deploying is local:
// the first subplan shipped on the channel opens it at the destination.
func (ex *execution) channelTo(site pattern.PeerID) *siteChan {
	e := ex.engine
	ex.mu.Lock()
	sc, ok := ex.sites[site]
	if !ok {
		sc = &siteChan{ch: e.Channels.Deploy(site, ex.qos.Tenant, int(ex.qos.Priority),
			func(pkt channel.Packet) { ex.onPacket(pkt) })}
		ex.sites[site] = sc
	}
	ex.mu.Unlock()
	if !ok {
		e.record(fact{kind: factChannelOpened}, nil)
	}
	return sc
}

func (ex *execution) onPacket(pkt channel.Packet) {
	// The stats sink is a caller-supplied callback: invoke it only after
	// ex.mu is released, so a sink that re-enters the engine cannot
	// deadlock against a packet handler.
	var sinkStats *stats.PeerStats
	var statsSite pattern.PeerID
	statsReceived := false
	resultsRows, resultsSeen := 0, false
	planChangeAck := false
	ex.mu.Lock()
	res, ok := ex.inbox[pkt.Channel]
	if ok {
		// Price the reply leg: every packet that reaches the collector
		// crossed the site→root link once, at the size the network
		// accounted. The link was captured at dispatch, so no network lock
		// is touched here.
		if res.span != nil {
			res.span.ChargeMS(res.link.TransferMS(pkt.WireBytes))
		}
		switch pkt.Type {
		case channel.Results:
			// Rebase the frame onto the execution's shared dictionary as
			// it arrives: one interning pass per frame, and reassembly plus
			// every operator above move ids without touching a term again.
			// A frame that fails to decode still counts as shipped below.
			e := ex.engine
			if b, err := rql.DecodeBatch(pkt.Payload); err != nil {
				res.err = fmt.Errorf("exec: bad results packet: %w", err)
			} else {
				res.batches = append(res.batches, b.Rebase(ex.store))
			}
			res.rowCount += pkt.Rows
			resultsRows = pkt.Rows
			resultsSeen = true
			if tm := e.Throughput; tm != nil {
				tm.Observe(res.site, pkt.Rows)
			}
			if !pkt.Final {
				break
			}
			// The final packet ends the stream and carries its trailers:
			// the serving peer's statistics and, when the root shipped a
			// trace context, the remote span record.
			res.done = true
			if len(pkt.Stats) > 0 {
				statsReceived = true
				statsSite = res.site
				if e.StatsSink != nil {
					if ps, err := stats.UnmarshalPeerStats(pkt.Stats); err == nil && ps.Peer != "" {
						sinkStats = ps
					}
				}
			}
			if len(pkt.Spans) > 0 && res.span != nil {
				var rec obs.SpanRecord
				if err := json.Unmarshal(pkt.Spans, &rec); err == nil {
					res.span.Graft(&rec)
				}
			}
		case channel.PlanChange:
			var pc channel.PlanChangeInfo
			if err := json.Unmarshal(pkt.Payload, &pc); err != nil {
				res.err = fmt.Errorf("exec: bad plan-change packet: %w", err)
				break
			}
			switch pc.Reason {
			case "resume-honored":
				res.resumed = true
			case "checkpoint-invalid":
				res.restarted = true
			}
			planChangeAck = true
		case channel.TraceSpans:
			var rec obs.SpanRecord
			if err := json.Unmarshal(pkt.Payload, &rec); err == nil && res.span != nil {
				res.span.Graft(&rec)
			}
		case channel.Failure:
			res.err = fmt.Errorf("exec: remote failure: %s", pkt.Payload)
		}
	}
	ex.mu.Unlock()
	// Facts and registry counters live behind their own locks: record
	// them after ex.mu is released so lock order stays one-deep.
	if planChangeAck {
		ex.engine.record(fact{kind: factPlanChangeAck}, nil)
	}
	if resultsSeen {
		ex.engine.record(fact{kind: factResults, count: resultsRows, bytes: len(pkt.Payload)}, nil)
		if reg := ex.engine.Obs; reg != nil {
			reg.Histogram("exec_batch_rows", obs.L("peer", string(ex.engine.Self))).Observe(float64(resultsRows))
		}
	}
	if statsReceived {
		if reg := ex.engine.Obs; reg != nil {
			peerL := obs.L("peer", string(ex.engine.Self))
			siteL := obs.L("site", string(statsSite))
			reg.Counter("exec_stats_packets_received_total", peerL, siteL).Inc()
			if sinkStats != nil {
				reg.Counter("exec_stats_packets_applied_total", peerL, siteL).Inc()
			}
		}
	}
	if sinkStats != nil {
		ex.engine.StatsSink(sinkStats)
	}
}

// closeAll retires the execution's channels at this root. Retiring is
// local — no destination holds state past the request it handled — so
// the order does not matter.
func (ex *execution) closeAll() {
	ex.mu.Lock()
	sites := ex.sites
	ex.sites = map[pattern.PeerID]*siteChan{}
	ex.mu.Unlock()
	for _, sc := range sites {
		ex.engine.Channels.Close(sc.ch)
	}
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
	// shipped back on the channel, and the inbound record stamps the trace
	// ids onto every upstream packet.
	rsp := obs.RemoteSpan(req.TraceID, req.SpanID, string(e.Self))
	if rsp != nil {
		in.BindTrace(req.TraceID, req.SpanID)
	}
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
		if len(traceRec) > 0 {
			if serr := in.Send(channel.Packet{Type: channel.TraceSpans, Payload: traceRec}); serr != nil {
				return nil, serr
			}
		}
		if serr := in.Send(channel.Packet{Type: channel.Failure, Payload: []byte(err.Error())}); serr != nil {
			return nil, serr
		}
		return []byte("failed"), nil
	}
	if err := e.streamBatches(in, rows, req.ResumeFrom, traceRec); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// wireFrame is one encoded Results frame awaiting its send slot.
type wireFrame struct {
	payload []byte // pooled; the sender returns it after the send
	rows    int
	last    bool
}

// streamBatches ships the answer upstream as length-prefixed binary batch
// frames (BatchSize rows each, per-frame compacted term dictionary,
// pooled encode buffers). The last frame is the Final packet that ends
// the stream: it carries the serving peer's statistics and a non-empty
// traceRec (the serialized remote span subtree) as trailers, so on the
// happy path neither costs a packet of its own. At least one Results
// packet is always sent, so the root learns the schema and the stream
// has a final packet. A positive resumeFrom is the root's checkpoint:
// when it is a valid prefix of this evaluation the stream starts after
// it (acked with a "resume-honored" plan-change packet); otherwise the
// checkpoint is rejected ("checkpoint-invalid") and the stream restarts
// from row 0 so the root discards its stale prefix.
//
// Encoding is pipelined with backpressure: a producer goroutine slices
// and encodes ahead of the sender through a channel holding at most
// streamWindow frames, so a slow (or high-latency) channel bounds how
// much encoded-but-unsent data exists at any moment instead of the whole
// result being materialized on the wire at once. The first send error
// stops the producer via the abort channel; remaining frames are drained
// back to the buffer pool.
func (e *Engine) streamBatches(in *channel.Inbound, rows *rql.Batch, resumeFrom int, traceRec []byte) error {
	batch := e.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	start0 := 0
	if resumeFrom > 0 {
		pc := channel.PlanChangeInfo{Reason: "resume-honored", Offset: resumeFrom}
		if resumeFrom > rows.Len() {
			// This evaluation produced fewer rows than the root already
			// holds: its checkpoint cannot be a prefix of our stream.
			pc = channel.PlanChangeInfo{Reason: "checkpoint-invalid"}
		} else {
			start0 = resumeFrom
		}
		payload, err := json.Marshal(pc)
		if err != nil {
			return fmt.Errorf("exec: marshal plan-change: %w", err)
		}
		if err := in.Send(channel.Packet{Type: channel.PlanChange, Payload: payload}); err != nil {
			return err
		}
	}
	var statsBody []byte
	if e.StatsProvider != nil {
		statsBody = e.StatsProvider()
	}
	frames := make(chan wireFrame, streamWindow)
	abort := make(chan struct{})
	go func() {
		defer close(frames)
		sl := rql.NewSlicer(rows)
		for start, last := start0, false; !last; start += batch {
			end := min(start+batch, rows.Len())
			last = end >= rows.Len()
			part := sl.Slice(start, end)
			payload := rql.AppendBatch(rql.GetWireBuf(), part)
			select {
			case frames <- wireFrame{payload: payload, rows: part.Len(), last: last}:
			case <-abort:
				rql.PutWireBuf(payload)
				return
			}
		}
	}()
	var sendErr error
	for f := range frames {
		if sendErr == nil {
			pkt := channel.Packet{Type: channel.Results, Rows: f.rows, Payload: f.payload}
			if f.last {
				pkt.Final, pkt.Stats, pkt.Spans = true, statsBody, traceRec
			}
			sendErr = in.Send(pkt)
			if sendErr != nil {
				// Stop the producer: the root's checkpoint is the contiguous
				// prefix that made it, and a retry resumes from there.
				close(abort)
			}
		}
		rql.PutWireBuf(f.payload)
	}
	return sendErr
}
