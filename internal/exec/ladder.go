package exec

import (
	"errors"
	"fmt"

	"sqpeer/internal/admission"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rql"
)

// outcome is how a dispatch try, a remote leaf or an execution round
// ended: what the recovery ladder decides on.
type outcome uint8

const (
	// How a dispatch try ended (outcomeOf); outOK is also a round that
	// answered with no slow channel.
	outOK        outcome = iota // the stream reached its final packet
	outTransient                // a lost request or packet, a deadline, a partition, a crash
	outOverload                 // the site's admission refused the subplan, with a retry-after hint
	outHopeless                 // the site's admission refused it with no hint: capacity frees past the deadline
	outRefused                  // the root's dictionary mirror refused a frame
	outCancelled                // the try failed while a sibling's failure aborted the round
	outPermanent                // a Failure packet, an unreadable frame, a stream with no final packet
	// How a leaf ended.
	outSiteFailed // the site gave up: no try answered
	outHole       // a `@?` leaf: no peer advertised its pattern when the plan was made
	// How a round ended (roundOutcome).
	outSlow       // the round answered, and the throughput monitor flagged peers
	outPeerFailed // a leaf failed the round with a PeerFailure
	outBroken     // the round failed on no peer: a subplan that does not encode
)

// step is what the executor does next.
type step uint8

const (
	stepComplete step = iota // keep the rows: the try, leaf or round is answered
	stepRetry                // wait, then re-dispatch from the checkpoint on a fresh channel
	stepMigrate              // run the failed site's subtree at the alternate peers; siblings keep their rows
	stepFill                 // run the hole at the peers that advertise its pattern now
	stepReplan               // discard the round and restart on the replanned plan (ubQL)
	stepHole                 // answer without the pattern: an absent leaf, or a restart on a holed plan
	stepFail                 // give up: a try to its leaf, a leaf to its round, a round to the caller
)

// cover is how well a re-route covers what the failed peers served.
type cover uint8

const (
	uncovered cover = iota // no plan, or nothing better than the rows in hand
	holed                  // a plan with holes for the patterns no peer covers
	covered                // every pattern found a peer
)

// facts is what the ladder reads besides the outcome. reroute and
// budget change state — they quarantine the failed peers, take one of
// the round's migrations — so the ladder asks them only on the rows that
// read them, in the order the table lists.
type facts struct {
	try        int     // the try that just ended, from 0
	maxRetries int     // Options.MaxRetries
	refused    bool    // an earlier try had a frame refused
	hintMS     float64 // an overload's retry-after hint
	backoffMS  float64 // the blind wait: retryBackoffMS, doubled per blind retry
	router     bool    // Engine.Router is set
	migration  bool    // Options.DisableMigration is off
	cancelled  bool    // the round is aborting
	replans    int     // replans this execution made so far
	partial    bool    // Options.AllowPartial
	// reroute drops the failed peers from routing and routes what they
	// served against the fresh snapshot.
	reroute func() cover
	// budget takes one of the round's maxMigrations; false when none is
	// left.
	budget func() bool
}

// decision is the ladder's answer: a step, and the wait before a retry.
type decision struct {
	step   step
	waitMS float64 // stepRetry: charged to the logical clock before the next try
	hinted bool    // the wait is the site's retry-after hint
}

// ladder is the executor's recovery ladder (DESIGN §10): it maps how a
// dispatch try, a remote leaf or an execution round ended, and what the
// engine knows, to the step the executor takes. The first row that
// matches decides; a fact not named in a row is not read.
//
//	outcome      facts, read in order                            step
//	--- a dispatch try (climb's loop) ---
//	ok           –                                               complete
//	transient    a retry left                                    retry after the backoff
//	overload     a retry left                                    retry after the hint
//	refused      a retry left                                    retry after the backoff
//	any other try outcome, or no retry left                      fail: the site gives up
//	--- a leaf ---
//	site failed  router, migration on, not cancelled,
//	             reroute covers, budget left                     migrate
//	site failed  otherwise                                       fail: the round fails
//	hole         router, reroute covers                          fill
//	hole         otherwise                                       hole: an absent branch
//	--- an execution round (ExecuteBatch's loop) ---
//	ok           –                                               complete
//	slow         router, replans left, reroute covers            replan
//	slow         otherwise                                       complete: keep the rows
//	peer failed  router, replans left, reroute covers            replan
//	peer failed  router, replans left, reroute holed, partial    hole: restart on the holed plan
//	peer failed  otherwise                                       fail: the query fails
//	broken       –                                               fail: the query fails
//
// A try has a retry left while it is below MaxRetries, plus one once any
// try had a frame refused: a refusal fails only because the root's table
// changed under the request, and the retry states the fresh table. The
// backoff starts at retryBackoffMS and doubles per blind retry; hinted
// retries leave it. A retry resumes after the rows that arrived, a
// contiguous prefix; a site that answers in one frame and loses it has
// no prefix, and its retry re-fetches from row 0. A site that rejects
// the checkpoint re-streams from row 0 and the root drops the prefix it
// held; the try's outcome is the re-stream's. Every reroute quarantines
// before it routes, so a migration, a fill and a replan see the peers a
// restart would. Migration budget is maxMigrations per round, replans
// maxReplans per execution; a throughput replan that leaves holes or
// the plan unchanged covers nothing.
func ladder(o outcome, f facts) decision {
	switch o {
	case outOK:
		return decision{step: stepComplete}
	case outTransient, outOverload, outRefused:
		retries := f.maxRetries
		if f.refused || o == outRefused {
			retries++
		}
		if f.try >= retries {
			break
		}
		if o == outOverload {
			return decision{step: stepRetry, waitMS: f.hintMS, hinted: true}
		}
		return decision{step: stepRetry, waitMS: f.backoffMS}
	case outSiteFailed:
		if f.router && f.migration && !f.cancelled && f.reroute() == covered && f.budget() {
			return decision{step: stepMigrate}
		}
	case outHole:
		if f.router && f.reroute() == covered {
			return decision{step: stepFill}
		}
		return decision{step: stepHole}
	case outSlow:
		if f.router && f.replans < maxReplans && f.reroute() == covered {
			return decision{step: stepReplan}
		}
		return decision{step: stepComplete}
	case outPeerFailed:
		if !f.router || f.replans >= maxReplans {
			break
		}
		switch f.reroute() {
		case covered:
			return decision{step: stepReplan}
		case holed:
			if f.partial {
				return decision{step: stepHole}
			}
		}
	}
	return decision{step: stepFail}
}

// outcomeOf classifies how a dispatch try ended, and an overload's
// retry-after hint. A rejection that crossed a socket arrives as its
// bare transient DeliveryError and is retried blind.
func outcomeOf(err error, cancelled bool) (outcome, float64) {
	switch {
	case err == nil:
		return outOK, 0
	case cancelled:
		return outCancelled, 0
	case refused(err):
		return outRefused, 0
	case admission.IsOverload(err):
		hint, ok := admission.RetryAfterHint(err)
		if !ok {
			return outHopeless, 0
		}
		return outOverload, hint
	case network.Transient(err):
		return outTransient, 0
	}
	return outPermanent, 0
}

// roundOutcome classifies how an execution round ended, with the peers
// a replan would drop. slowPeers closes the throughput window; it is
// called only for a round that answered.
func roundOutcome(err error, slowPeers func() []pattern.PeerID) (outcome, []pattern.PeerID) {
	var pf *PeerFailure
	switch {
	case err == nil:
		if slow := slowPeers(); len(slow) > 0 {
			return outSlow, slow
		}
		return outOK, nil
	case errors.As(err, &pf):
		return outPeerFailed, []pattern.PeerID{pf.Peer}
	}
	return outBroken, nil
}

// climb takes one remote leaf up the ladder: it ships the node to site,
// retries as the ladder says, and once the site gives up either
// migrates the subtree to alternate peers or fails the round with the
// site's PeerFailure. A retry deploys a fresh channel and asks the site
// to resume after the checkpoint, the contiguous prefix of rows already
// held (the destination aborts streaming at its first failed send, the
// channel watermark proves contiguity, and the collector keeps no frame
// after one it could not read). The destination acknowledges with a
// PlanChange packet: "resume-honored" keeps the prefix,
// "checkpoint-invalid" discards it and re-streams from scratch. Outcomes
// feed the health tracker.
func (ex *execution) climb(site pattern.PeerID, n plan.Node, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	data, err := plan.Marshal(&plan.Plan{Root: n})
	if err != nil {
		return nil, fmt.Errorf("exec: marshal subplan: %w", err)
	}
	ex.acquire()
	if ex.cancelled() {
		ex.release()
		return nil, errCancelled
	}
	leaf := sp.ChildAt(obs.KindDispatch, "dispatch@"+string(site), string(site))
	f := facts{maxRetries: e.MaxRetries, backoffMS: retryBackoffMS}
	var partial *rql.Batch  // checkpointed rows from failed tries
	checkpoint := 0         // contiguous row prefix already delivered
	resumed := false        // the site honored a checkpoint
	pendingBackoffMS := 0.0 // backoff owed to the next try's span
	for ; ; f.try++ {
		// The first try streams under a "stream" span; each retry gets a
		// "retry" span carrying its backoff charge plus the re-sent
		// transfer — so the retry/backoff phase prices what the failure
		// cost, not just the waiting.
		kind, name := obs.KindStream, "stream"
		if f.try > 0 {
			kind, name = obs.KindRetry, fmt.Sprintf("retry.%d", f.try)
		}
		ssp := leaf.Child(kind, name)
		ssp.ChargeMS(pendingBackoffMS)
		var res *remoteResult
		res, err = ex.dispatch(site, data, f.try, checkpoint, ssp)
		ssp.End()
		switch {
		case res.restarted:
			// The destination rejected our checkpoint and re-streamed from
			// row 0: drop the retained prefix (set-union keeps the answer
			// right either way; the ledger keeps the accounting honest).
			e.record(fact{kind: factCheckpointRejected, count: checkpoint}, nil)
			ssp.Annotate("checkpoint", "invalid")
			partial, checkpoint, resumed = nil, 0, false
		case checkpoint > 0 && res.resumed:
			resumed = true
			ssp.Annotate("checkpoint", "resumed")
			// On the leaf span: ssp has already Ended.
			e.record(fact{kind: factResume, site: site, count: checkpoint}, leaf)
		}
		// Retried tries re-stream after the checkpoint, so a new segment
		// extends (never overlaps) the retained prefix; union keeps the set
		// semantics honest if a destination ever re-sends a boundary row.
		if rel := res.gathered(); partial == nil {
			partial = rel
		} else if rel != nil {
			partial = partial.Union(rel)
		}
		checkpoint += res.rowCount
		var o outcome
		o, f.hintMS = outcomeOf(err, ex.cancelled())
		d := ladder(o, f)
		if d.step == stepComplete {
			if e.Health != nil {
				e.Health.ReportSuccess(site)
			}
			// A try that answered delivered its final Results frame, so
			// partial holds at least that frame.
			ex.recordComplete(site, n, checkpoint, res.watermark, resumed)
			leaf.End()
			ex.release()
			return partial, nil
		}
		if d.step != stepRetry {
			break
		}
		f.refused = f.refused || o == outRefused
		if !d.hinted {
			f.backoffMS *= 2
		}
		e.record(fact{kind: factRetry, site: site, try: f.try + 1, waitMS: d.waitMS, hinted: d.hinted}, leaf)
		pendingBackoffMS = d.waitMS
		ex.resetSite(site)
	}
	// The site gave up: the checkpointed prefix is abandoned (a migration
	// or restart fetches the subtree elsewhere, from scratch).
	e.record(fact{kind: factFailed, count: checkpoint, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: patternKey(n),
		Rows: checkpoint, Attempt: ex.attempt,
	}}, nil)
	if e.Health != nil {
		e.Health.ReportFailure(site)
	}
	leaf.End()
	// The pool token is released before any migration: the migrated
	// subtree re-enters ex.run and acquires its own tokens (token holders
	// never acquire twice).
	ex.release()
	var alternate *plan.Plan
	retained := 0
	d := ladder(outSiteFailed, facts{
		router: e.Router != nil, migration: !e.DisableMigration, cancelled: ex.cancelled(),
		reroute: func() cover {
			alternate = ex.reroute(site, n)
			return covers(alternate)
		},
		budget: func() (ok bool) {
			retained, ok = ex.takeMigration()
			return ok
		},
	})
	if d.step != stepMigrate {
		return nil, err
	}
	msp := sp.Child(obs.KindMigrate, "migrate-from@"+string(site))
	if msp != nil {
		msp.Annotate("retainedRows", fmt.Sprintf("%d", retained))
	}
	e.record(fact{kind: factMigrate, count: retained, entry: LedgerEntry{
		Site: site, Subplan: n.String(), Patterns: patternKey(n), Attempt: ex.attempt,
	}}, msp)
	rows, err := ex.run(alternate.Root, msp)
	msp.End()
	if err == nil && rows == nil {
		rows = rql.NewBatch()
	}
	return rows, err
}

// reroute is the plan-change protocol's re-route of a failed site's
// subtree: it quarantines the site exactly as a restart would (so
// migration and restart agree on which peers the re-route may use, which
// the migrated answer's equality to the restarted one needs), cuts the
// site's scans out of the subtree, and fills the holes from a fresh
// quarantine-aware snapshot. nil when some pattern found no other peer.
//
// Ordering note: each migration quarantines its site BEFORE routing. A
// migrated branch that lands on a sibling's in-flight cache entry
// therefore routed before that sibling quarantined its own site — so a
// cycle of branches waiting on each other's entries would need every
// route to precede every quarantine, which the per-branch
// quarantine-then-route order makes impossible. The wait graph stays
// acyclic no matter how concurrent migrations interleave.
func (ex *execution) reroute(site pattern.PeerID, n plan.Node) *plan.Plan {
	e := ex.engine
	e.dropFromRouting(site)
	excluded, _ := plan.ExcludePeers(&plan.Plan{Root: n}, map[pattern.PeerID]bool{site: true})
	filled, _ := e.fillHoles(excluded)
	return filled
}

// covers is the cover of a re-route that either fills every hole or
// yields nil.
func covers(p *plan.Plan) cover {
	if p == nil {
		return uncovered
	}
	return covered
}

// runHole resolves a `@?` leaf mid-flight: advertisement updates learned
// since the plan was generated may cover it now, in which case the hole
// becomes a dispatched subplan (the paper's plan-change packets carry
// exactly this upgrade) while sibling branches keep streaming. A hole no
// snapshot covers is an absent branch, reported unanswered. Holes reach
// execution only under AllowPartial (ExecuteBatch rejects a holed plan
// otherwise), and they never ship.
func (ex *execution) runHole(v *plan.Scan, sp *obs.Span) (*rql.Batch, error) {
	e := ex.engine
	var filled *plan.Plan
	nfilled := 0
	d := ladder(outHole, facts{router: e.Router != nil, reroute: func() cover {
		filled, nfilled = e.fillHoles(&plan.Plan{Root: v})
		return covers(filled)
	}})
	if d.step == stepHole {
		ex.markUnanswered(patternIDs(v), ex.holeReason)
		return nil, nil // absent
	}
	e.record(fact{kind: factHoleFill, count: nfilled}, nil)
	hsp := sp.Child(obs.KindHoleFill, "hole-fill")
	rows, err := ex.run(filled.Root, hsp)
	hsp.End()
	return rows, err
}

// takeMigration takes one of the round's maxMigrations, returning the
// sibling rows the round has completed so far (what the migration
// retains); ok is false when none is left.
func (ex *execution) takeMigration() (retained int, ok bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.migrations >= maxMigrations {
		return 0, false
	}
	ex.migrations++
	return ex.completedRows, true
}

// fillHoles routes p's holes against a fresh, quarantine-aware routing
// snapshot and fills them, splitting multi-pattern holes so each pattern
// can land on its own peers. It returns the filled plan and how many
// holes it filled, or nil unless it filled some hole and left none. A
// subtree the site's exclusion cut nothing from has no hole and so is
// never "filled" into a copy of itself.
func (e *Engine) fillHoles(p *plan.Plan) (*plan.Plan, int) {
	var pats []pattern.PathPattern
	for _, h := range plan.Holes(p.Root) {
		pats = append(pats, h.Patterns...)
	}
	filled, n := plan.FillHoles(plan.SplitHoles(p), e.Router.RoutePatterns(pats))
	if n == 0 || plan.HasHoles(filled.Root) {
		return nil, 0
	}
	return filled, n
}

// replan is the round's replan rung, for both triggers: it drops the
// obsolete peers from routing and replans cur around them, returning the
// new plan and how well it covers the query. A failure opens its
// "replan.<attempt>" span here, whatever comes of the replan; a
// throughput replan opens its span only once adopted (ExecuteBatch).
func (e *Engine) replan(cur *plan.Plan, o outcome, obsolete []pattern.PeerID, attempt int, span *obs.Span) (*plan.Plan, cover, error) {
	slow := o == outSlow
	if slow && span != nil {
		span.Annotate(fmt.Sprintf("throughput.flagged.%d", attempt), peersCSV(obsolete))
	}
	gone := make(map[pattern.PeerID]bool, len(obsolete))
	for _, peer := range obsolete {
		gone[peer] = true
		e.dropFromRouting(peer)
	}
	if !slow {
		replanSpan(span, attempt, "failure", obsolete).End()
	}
	next, err := optimizer.Replan(cur, gone, e.Router)
	switch {
	case err == nil && !(slow && plan.Equal(next.Root, cur.Root)):
		return next, covered, nil
	case err != nil && next != nil && !slow:
		return next, holed, err
	}
	return next, uncovered, err
}

// replanSpan opens a round's "replan.<attempt>" span under span.
func replanSpan(span *obs.Span, attempt int, trigger string, obsolete []pattern.PeerID) *obs.Span {
	rsp := span.Child(obs.KindReplan, fmt.Sprintf("replan.%d", attempt))
	rsp.Annotate("trigger", trigger)
	rsp.Annotate("obsolete", peersCSV(obsolete))
	return rsp
}
