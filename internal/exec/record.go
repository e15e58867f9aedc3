package exec

import (
	"strconv"

	"sqpeer/internal/admission"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// Metrics counts executor activity for the experiment harness. Every
// field is folded by Engine.record, the executor's one write path.
type Metrics struct {
	// ChannelsOpened counts channels deployed by this engine as root.
	ChannelsOpened int
	// SubplansShipped counts subplans sent to remote peers.
	SubplansShipped int
	// RowsShipped counts result rows received from remote peers.
	RowsShipped int
	// BytesShipped counts result payload bytes received from remotes.
	BytesShipped int
	// Replans counts run-time adaptations performed.
	Replans int
	// LocalScans counts scans evaluated against the local base.
	LocalScans int
	// Retries counts transiently-failed dispatches that were retried.
	Retries int
	// BackoffMS is the total retry backoff charged to the logical clock.
	BackoffMS float64
	// PartialAnswers counts executions that returned an incomplete result
	// under AllowPartial.
	PartialAnswers int
	// Migrations counts mid-flight subplan migrations: a failed subtree
	// re-dispatched to an alternate peer while its siblings' rows were
	// retained (vs. Replans, which discard and restart everything).
	Migrations int
	// HolesFilled counts `@?` holes converted into dispatched subplans
	// mid-flight, after advertisement updates made them answerable.
	HolesFilled int
	// PlanChanges counts plan changes: every PlanChange packet received
	// (a destination's resume ack or checkpoint rejection), every
	// mid-flight hole fill and every migration. The last two send no
	// packet of their own.
	PlanChanges int
	// Resumes counts dispatch retries that resumed from a row checkpoint
	// instead of re-streaming from scratch.
	Resumes int
	// RowsRetained counts rows that recovery did NOT have to fetch again:
	// sibling rows kept across a migration plus checkpointed prefixes
	// honored by resumed dispatches.
	RowsRetained int
	// RowsRefetched counts rows a site shipped again for a pattern set
	// it had already delivered in an earlier dispatch of this query — the
	// wasted work a full restart pays and migration avoids. Horizontal
	// siblings (one pattern set at several sites) are distinct slices.
	RowsRefetched int
	// RowsDiscarded counts partially-streamed rows abandoned when a
	// dispatch ultimately failed or a checkpoint was rejected.
	RowsDiscarded int
	// Shed counts subplans this engine (as root) converted into
	// completeness holes because its pool saturated past the query's
	// priority watermark — answered partially instead of timing out.
	Shed int
	// OverloadRejected counts subplans this engine (as serving peer)
	// refused at admission; the root retries, migrates or sheds them.
	OverloadRejected int
	// RetryAfterHonored counts retries that waited the destination's
	// retry-after hint instead of the default doubling backoff curve.
	RetryAfterHonored int
}

// LedgerEntry is one finished dispatch in the executor's per-leaf row
// ledger: the checkpointed result accounting behind the plan-change
// protocol. CLAIM-RECOVER reconciles these entries to prove exactly-once
// recovery (retained rows + migrated rows = restart rows).
type LedgerEntry struct {
	// Site is the peer the subplan ran at.
	Site pattern.PeerID `json:"site"`
	// Subplan is the canonical rendering of the dispatched node.
	Subplan string `json:"subplan"`
	// Patterns is the site-independent pattern-set key of the subplan;
	// two dispatches with equal keys fetched the same logical data slice.
	Patterns string `json:"patterns"`
	// Rows is how many result rows the dispatch delivered (for "failed"
	// entries: how many had arrived before the failure, all discarded).
	Rows int `json:"rows"`
	// Watermark is the channel's contiguous sequence watermark when the
	// dispatch finished.
	Watermark int `json:"watermark"`
	// Attempt is the ExecuteAnnotated restart round the dispatch ran in.
	Attempt int `json:"attempt"`
	// Outcome is "complete", "failed", "migrated-away" or "shed".
	Outcome string `json:"outcome"`
	// Resumed reports that the dispatch resumed from a row checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// factKind names one thing the executor did. The kinds from factFailed
// on have an outcome: each is also one row-ledger entry.
type factKind uint8

const (
	factLocalScan          factKind = iota // a scan ran against the local base
	factChannelOpened                      // a channel to a site opened
	factShipped                            // a subplan was sent to site (try)
	factResults                            // a Results packet: count rows, bytes bytes
	factPlanChangeAck                      // a destination acknowledged a plan change
	factHoleFill                           // count holes became dispatched subplans
	factCheckpointRejected                 // the destination re-streamed; count checkpointed rows dropped
	factResume                             // a retry to site resumed after count checkpointed rows
	factRetry                              // retry try to site after waitMS (hinted: the retry-after hint)
	factReplan                             // the whole plan was replanned (trigger, obsolete)
	factPartialAnswer                      // an execution returned an incomplete result
	factOverloadRejected                   // admission refused a shipped subplan
	factFailed                             // a dispatch failed for good; count rows discarded
	factComplete                           // a dispatch completed; count rows re-fetched
	factShed                               // a subplan was shed into a completeness hole (qos)
	factMigrate                            // a subtree migrated away; count sibling rows retained
)

// outcomes is the ledger outcome of each fact kind that has one.
var outcomes = [...]string{
	factFailed:   "failed",
	factComplete: "complete",
	factShed:     "shed",
	factMigrate:  "migrated-away",
}

// fact is one executor fact, recorded once through Engine.record; each
// kind reads only the fields its comment above names.
type fact struct {
	kind   factKind
	site   pattern.PeerID
	count  int
	bytes  int
	try    int
	waitMS float64
	hinted bool
	// trigger and obsolete describe a replan.
	trigger, obsolete string
	qos               admission.QoS
	// entry is the ledger entry of an outcome fact (Outcome is filled in
	// from the kind).
	entry LedgerEntry
}

// record is the executor's one write path. Under e.mu it folds the fact
// into Metrics and, for an outcome fact, appends it to the row ledger;
// then, outside the lock, a shed is charged to the admission controller
// and, when Events is set, the fact's events are emitted stamped with
// e.Self and correlated to sp (nil: no span). The Metrics counters, the
// ledger and the events are therefore views of the same calls and agree
// by construction.
func (e *Engine) record(f fact, sp *obs.Span) {
	dst := e
	if e.serving != nil {
		dst = e.serving
	}
	if f.kind >= factFailed {
		f.entry.Outcome = outcomes[f.kind]
	}
	dst.mu.Lock()
	m := &dst.metrics
	switch f.kind {
	case factLocalScan:
		m.LocalScans++
	case factChannelOpened:
		m.ChannelsOpened++
	case factShipped:
		m.SubplansShipped++
	case factResults:
		m.RowsShipped += f.count
		m.BytesShipped += f.bytes
	case factPlanChangeAck:
		m.PlanChanges++
	case factHoleFill:
		m.HolesFilled += f.count
		m.PlanChanges++
	case factCheckpointRejected, factFailed:
		m.RowsDiscarded += f.count
	case factResume:
		m.Resumes++
		m.RowsRetained += f.count
	case factRetry:
		m.Retries++
		m.BackoffMS += f.waitMS
		if f.hinted {
			m.RetryAfterHonored++
		}
	case factReplan:
		m.Replans++
	case factPartialAnswer:
		m.PartialAnswers++
	case factOverloadRejected:
		m.OverloadRejected++
	case factComplete:
		m.RowsRefetched += f.count
	case factShed:
		m.Shed++
	case factMigrate:
		m.Migrations++
		m.PlanChanges++
		m.RowsRetained += f.count
	}
	// The ledger belongs to this engine's own root executions; a shadow
	// engine's nested dispatches fold only their counters.
	if f.kind >= factFailed && e.serving == nil {
		dst.lastLedger = append(dst.lastLedger, f.entry)
	}
	dst.mu.Unlock()
	if f.kind == factShed {
		e.Admission.RecordShed(f.qos)
	}
	if e.Events != nil {
		e.emit(f, sp)
	}
}

// emit writes a recorded fact's events: a "ledger" event for an outcome
// fact (no trace, like the ledger itself), then the fact's own event,
// if its kind has one, correlated to sp.
func (e *Engine) emit(f fact, sp *obs.Span) {
	self := string(e.Self)
	en := f.entry
	if f.kind >= factFailed {
		e.Events.Emit("exec", "ledger", self, "",
			obs.A("site", string(en.Site)), obs.A("outcome", en.Outcome),
			obs.A("patterns", en.Patterns), obs.A("rows", strconv.Itoa(en.Rows)),
			obs.A("attempt", strconv.Itoa(en.Attempt)))
	}
	var kind string
	var attrs []obs.Attr
	switch f.kind {
	case factShipped:
		kind = "dispatch"
		attrs = []obs.Attr{obs.A("site", string(f.site)), obs.A("try", strconv.Itoa(f.try))}
	case factResume:
		kind = "resume"
		attrs = []obs.Attr{obs.A("site", string(f.site)), obs.A("checkpoint", strconv.Itoa(f.count))}
	case factRetry:
		kind = "retry"
		attrs = []obs.Attr{obs.A("site", string(f.site)), obs.A("try", strconv.Itoa(f.try)),
			obs.A("waitMs", strconv.FormatFloat(f.waitMS, 'g', -1, 64))}
	case factReplan:
		kind = "replan"
		attrs = []obs.Attr{obs.A("trigger", f.trigger), obs.A("obsolete", f.obsolete)}
	case factShed:
		kind = "shed"
		attrs = []obs.Attr{obs.A("site", string(en.Site)), obs.A("priority", f.qos.Priority.String()),
			obs.A("patterns", en.Patterns)}
	case factMigrate:
		kind = "migrate"
		attrs = []obs.Attr{obs.A("from", string(en.Site)), obs.A("retainedRows", strconv.Itoa(f.count))}
	default:
		return
	}
	trace := ""
	if sp != nil {
		trace = sp.TraceID()
		attrs = append(attrs, obs.A("span", sp.Path()))
	}
	e.Events.Emit("exec", kind, self, trace, attrs...)
}

// Ledger returns the row ledger of the most recent ExecuteAnnotated call.
func (e *Engine) Ledger() []LedgerEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]LedgerEntry, len(e.lastLedger))
	copy(out, e.lastLedger)
	return out
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

// ResetMetrics zeroes the counters between experiment runs.
func (e *Engine) ResetMetrics() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = Metrics{}
}
