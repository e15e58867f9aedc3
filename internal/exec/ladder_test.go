package exec

import (
	"errors"
	"strings"
	"testing"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
)

// ladderRow is one row of the recovery ladder's table: an outcome and the
// facts it meets, the step the ladder must take, the lazy facts it must
// read to get there (in order), and a scenario that reaches the row end
// to end in a small system and checks that the executor took the step.
type ladderRow struct {
	name  string
	o     outcome
	f     facts
	alt   cover // what reroute answers
	left  bool  // what budget answers
	reads string
	want  decision
	e2e   func(t *testing.T)
}

// TestLadder checks every reachable row of the ladder's table, first as
// a call of ladder, then end to end.
func TestLadder(t *testing.T) {
	hint := hintOf(t, overloaded())
	rows := []ladderRow{
		// A dispatch try.
		{name: "try answered", o: outOK, f: facts{maxRetries: 1},
			want: decision{step: stepComplete}, e2e: faultFree},
		{name: "transient with a retry left", o: outTransient, f: facts{maxRetries: 1, backoffMS: 10},
			want: decision{step: stepRetry, waitMS: 10}, e2e: transientRetried},
		{name: "transient with a retry left by an earlier refusal", o: outTransient,
			f:    facts{try: 1, maxRetries: 1, refused: true, backoffMS: 20},
			want: decision{step: stepRetry, waitMS: 20}, e2e: transientAfterRefusal},
		{name: "transient with no retry left", o: outTransient, f: facts{try: 1, maxRetries: 1, backoffMS: 20},
			want: decision{step: stepFail}, e2e: lostRequestNoRouter},
		{name: "overload with a retry left", o: outOverload, f: facts{maxRetries: 1, hintMS: hint, backoffMS: 10},
			want: decision{step: stepRetry, waitMS: hint, hinted: true}, e2e: overloadRetried},
		{name: "overload with no retry left", o: outOverload, f: facts{hintMS: hint, backoffMS: 10},
			want: decision{step: stepFail}, e2e: overloadNoRetry},
		{name: "hopeless overload", o: outHopeless, f: facts{maxRetries: 2},
			want: decision{step: stepFail}, e2e: hopelessOverload},
		{name: "mirror refused, first refusal", o: outRefused, f: facts{backoffMS: 10},
			want: decision{step: stepRetry, waitMS: 10}, e2e: refusedOnce},
		{name: "mirror refused again, no retry left", o: outRefused, f: facts{try: 1, refused: true, backoffMS: 20},
			want: decision{step: stepFail}, e2e: refusedTwice},
		{name: "cancelled", o: outCancelled, f: facts{maxRetries: 2},
			want: decision{step: stepFail}, e2e: cancelledTry},
		{name: "permanent", o: outPermanent, f: facts{maxRetries: 2},
			want: decision{step: stepFail}, e2e: failurePacket},
		// A leaf whose site gave up.
		{name: "site failed, alternate and budget", o: outSiteFailed, f: facts{router: true, migration: true},
			alt: covered, left: true, reads: "reroute budget", want: decision{step: stepMigrate}, e2e: migrated},
		{name: "site failed, no router", o: outSiteFailed, f: facts{migration: true},
			want: decision{step: stepFail}, e2e: lostRequestNoRouter},
		{name: "site failed, migration off", o: outSiteFailed, f: facts{router: true},
			want: decision{step: stepFail}, e2e: restarted},
		{name: "site failed while cancelled", o: outSiteFailed, f: facts{router: true, migration: true, cancelled: true},
			want: decision{step: stepFail}, e2e: cancelledTry},
		{name: "site failed, no alternate", o: outSiteFailed, f: facts{router: true, migration: true},
			alt: uncovered, reads: "reroute", want: decision{step: stepFail}, e2e: soleHolderStrict},
		{name: "site failed, budget spent", o: outSiteFailed, f: facts{router: true, migration: true},
			alt: covered, reads: "reroute budget", want: decision{step: stepFail}, e2e: budgetSpent},
		// A `@?` leaf.
		{name: "hole now advertised", o: outHole, f: facts{router: true},
			alt: covered, reads: "reroute", want: decision{step: stepFill}, e2e: holeFilled},
		{name: "hole, no router", o: outHole,
			want: decision{step: stepHole}, e2e: holeRouterless},
		{name: "hole still unadvertised", o: outHole, f: facts{router: true},
			alt: uncovered, reads: "reroute", want: decision{step: stepHole}, e2e: holeUnadvertised},
		// An execution round (a round that answered with no slow channel
		// is the first row's outcome).
		{name: "slow peers, replan covers", o: outSlow, f: facts{router: true},
			alt: covered, reads: "reroute", want: decision{step: stepReplan}, e2e: throughputReplan},
		{name: "slow peers, replan covers nothing", o: outSlow, f: facts{router: true},
			alt: uncovered, reads: "reroute", want: decision{step: stepComplete}, e2e: throughputSoleHolders},
		{name: "slow peers, no router", o: outSlow,
			want: decision{step: stepComplete}, e2e: throughputNoRouter},
		{name: "slow peers, no replan left", o: outSlow, f: facts{router: true, replans: maxReplans},
			want: decision{step: stepComplete}, e2e: throughputAfterReplans},
		{name: "peer failed, replan covers", o: outPeerFailed, f: facts{router: true},
			alt: covered, reads: "reroute", want: decision{step: stepReplan}, e2e: restarted},
		{name: "peer failed, replan holed, partial", o: outPeerFailed, f: facts{router: true, partial: true},
			alt: holed, reads: "reroute", want: decision{step: stepHole}, e2e: soleHolderPartial},
		{name: "peer failed, replan holed, strict", o: outPeerFailed, f: facts{router: true},
			alt: holed, reads: "reroute", want: decision{step: stepFail}, e2e: soleHolderStrict},
		{name: "peer failed, no replan", o: outPeerFailed, f: facts{router: true, partial: true},
			alt: uncovered, reads: "reroute", want: decision{step: stepFail}, e2e: disconnectedQuery},
		{name: "peer failed, no router", o: outPeerFailed, f: facts{partial: true},
			want: decision{step: stepFail}, e2e: lostRequestNoRouter},
		{name: "peer failed, no replan left", o: outPeerFailed, f: facts{router: true, replans: maxReplans},
			want: decision{step: stepFail}, e2e: replansSpent},
		{name: "broken round", o: outBroken, f: facts{router: true, partial: true},
			want: decision{step: stepFail}, e2e: unencodable},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var read []string
			f := row.f
			f.reroute = func() cover { read = append(read, "reroute"); return row.alt }
			f.budget = func() bool { read = append(read, "budget"); return row.left }
			if got := ladder(row.o, f); got != row.want {
				t.Errorf("ladder = %+v, want %+v", got, row.want)
			}
			if got := strings.Join(read, " "); got != row.reads {
				t.Errorf("ladder read %q, want %q", got, row.reads)
			}
			row.e2e(t)
		})
	}
}

// TestOutcomeOf pins the classification of a try's error that the rows
// above rely on.
func TestOutcomeOf(t *testing.T) {
	hopeless := hopelessErr()
	for _, c := range []struct {
		err       error
		cancelled bool
		want      outcome
	}{
		{nil, true, outOK},
		{&PeerFailure{Peer: "P2", Err: &network.DeliveryError{Transient: true}}, true, outCancelled},
		{&PeerFailure{Peer: "P2", Err: errMirrorRefused}, false, outRefused},
		{&PeerFailure{Peer: "P2", Err: overloaded()}, false, outOverload},
		{&PeerFailure{Peer: "P2", Err: hopeless}, false, outHopeless},
		{&PeerFailure{Peer: "P2", Err: &network.DeliveryError{Transient: true, RetryAfterMS: 5}}, false, outTransient},
		{&PeerFailure{Peer: "P2", Err: errors.New("exec: remote failure")}, false, outPermanent},
	} {
		if got, _ := outcomeOf(c.err, c.cancelled); got != c.want {
			t.Errorf("outcomeOf(%v, %v) = %d, want %d", c.err, c.cancelled, got, c.want)
		}
	}
}

// newLadderRig is the Figure-2 system as bare engines, its root P1
// running one plan at a time, sequentially, with no retries and an event
// log, and routing over the advertisements of the peers named (none: no
// router).
func newLadderRig(t *testing.T, advertised ...pattern.PeerID) *mirrorRig {
	t.Helper()
	rig := newMirrorRig(t, 3)
	rig.root.Parallelism = 1
	rig.root.MaxRetries = 0
	rig.root.Events = obs.NewEventLog(rig.net.NowMS)
	if len(advertised) > 0 {
		reg := routing.NewRegistry()
		ads := gen.PaperActiveSchemas()
		for _, id := range advertised {
			as := ads[id]
			if as == nil { // a replica of P2
				as = ads["P2"]
			}
			reg.Register(id, as)
		}
		rig.root.Router = routing.NewRouter(gen.PaperSchema(), reg)
	}
	return rig
}

// replicate serves more peers holding copies of P2's base.
func (rig *mirrorRig) replicate(ids ...pattern.PeerID) {
	for _, id := range ids {
		rig.serve(id, gen.PaperBases(3)["P2"])
	}
}

// ran is one execution at a rig's root.
type ran struct {
	rows *rql.Batch
	comp Completeness
	err  error
	m    Metrics
}

// run executes p at the root with fresh counters.
func (rig *mirrorRig) run(p *plan.Plan) ran {
	rig.root.ResetMetrics()
	rows, comp, err := rig.root.ExecuteBatch(p, nil, admission.QoS{})
	return ran{rows: rows, comp: comp, err: err, m: rig.root.Metrics()}
}

// routed is the plan the root's router makes for the paper query.
func (rig *mirrorRig) routed(t *testing.T) *plan.Plan {
	t.Helper()
	p, err := plan.Generate(rig.root.Router.Route(gen.PaperQuery()))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// answer renders rows projected on the paper query, sorted.
func answer(rows *rql.Batch) string {
	return strings.Join(rows.Project(gen.PaperQuery().Projections).ResultSet().Sorted(), "\n")
}

// truth is the paper query's answer over the union of bases.
func truth(t *testing.T, bases ...*rdf.Base) string {
	t.Helper()
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, gen.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	merged := rdf.NewBase()
	for _, b := range bases {
		merged.AddAll(b.Triples())
	}
	rs, err := rql.Eval(c, merged)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(rs.Sorted(), "\n")
}

// all is every base of the rig, by peer.
func (rig *mirrorRig) all(ids ...pattern.PeerID) []*rdf.Base {
	if len(ids) == 0 {
		ids = []pattern.PeerID{"P1", "P2", "P3", "P4"}
	}
	var out []*rdf.Base
	for _, id := range ids {
		out = append(out, rig.bases[id])
	}
	return out
}

// wantAnswer fails t unless r answered completely with want.
func wantAnswer(t *testing.T, r ran, want string) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("execute: %v", r.err)
	}
	if !r.comp.Complete {
		t.Fatalf("partial answer %+v", r.comp)
	}
	if got := answer(r.rows); got != want {
		t.Fatalf("answer:\n%s\nwant:\n%s", got, want)
	}
}

// wantPeerFailure fails t unless r failed on site's PeerFailure.
func wantPeerFailure(t *testing.T, r ran, site pattern.PeerID) *PeerFailure {
	t.Helper()
	var pf *PeerFailure
	if !errors.As(r.err, &pf) || pf.Peer != site {
		t.Fatalf("want %s's PeerFailure, got %v", site, r.err)
	}
	return pf
}

// wantFailedReplan fails t unless r failed on a replan around site that
// could not cover the query.
func wantFailedReplan(t *testing.T, r ran, site pattern.PeerID) {
	t.Helper()
	if r.err == nil || !strings.HasPrefix(r.err.Error(), "exec: adaptation after exec: peer "+string(site)+" failed") || r.m.Replans != 0 {
		t.Fatalf("want the replan around %s to fail, got %v, %+v", site, r.err, r.m)
	}
}

// wantReplans fails t unless the root's events hold exactly these replan
// triggers, in order.
func (rig *mirrorRig) wantReplans(t *testing.T, triggers ...string) {
	t.Helper()
	var got []string
	for _, ev := range rig.root.Events.Events() {
		if ev.Component == "exec" && ev.Kind == "replan" {
			got = append(got, ev.Attrs["trigger"])
		}
	}
	if strings.Join(got, ",") != strings.Join(triggers, ",") {
		t.Fatalf("replan triggers %v, want %v", got, triggers)
	}
}

// hijack replaces site's subplan handler with serve, which sees each
// request's call number, from 1, and may hand it to the site's engine.
func (rig *mirrorRig) hijack(site pattern.PeerID, serve func(call int, srv *Engine, msg network.Message) ([]byte, error)) {
	srv, call := rig.sites[site], 0
	rig.net.Handle(site, "exec.subplan", func(msg network.Message) ([]byte, error) {
		call++
		return serve(call, srv, msg)
	})
}

// overloaded is a load rejection from a saturated admission controller:
// its retry-after hint is the 35 ms lease it waits on.
func overloaded() error {
	c := admission.NewController(admission.Config{MaxConcurrent: 1, HoldMS: 35})
	_ = c.AdmitWork(admission.QoS{})
	return c.AdmitWork(admission.QoS{})
}

// hopelessErr is a rejection whose retry-after exceeds the budget.
func hopelessErr() error {
	c := admission.NewController(admission.Config{RatePerSec: 1, Burst: 1})
	_ = c.AdmitQuery(admission.QoS{}, 0)
	return c.AdmitQuery(admission.QoS{}, 100)
}

func hintOf(t *testing.T, err error) float64 {
	hint, ok := admission.RetryAfterHint(err)
	if !ok || hint == retryBackoffMS {
		t.Fatalf("rejection %v has hint %v; the rows need one the backoff cannot mistake for it", err, hint)
	}
	return hint
}

// sendFailure answers a request with a Failure packet.
func sendFailure(srv *Engine, msg network.Message) ([]byte, error) {
	req, err := channel.DecodeSubplan(msg.Payload)
	if err != nil {
		return nil, err
	}
	in := srv.Channels.Accept(msg.From, req.Channel, req.SeqBase, req.Tenant)
	return []byte("failed"), in.Send(channel.Packet{Type: channel.Failure, Final: true, Payload: []byte("disk on fire")})
}

// sendRefused answers a request with a mirror frame past any table the
// root holds, which the root refuses.
func sendRefused(srv *Engine, msg network.Message) ([]byte, error) {
	req, err := channel.DecodeSubplan(msg.Payload)
	if err != nil {
		return nil, err
	}
	frame, err := rql.NewMirrorFrame(rql.NewBatch(), 0, 0, &rql.Mirror{Stamp: 1, Offset: 1 << 20}, "")
	if err != nil {
		return nil, err
	}
	in := srv.Channels.Accept(msg.From, req.Channel, req.SeqBase, req.Tenant)
	return []byte("ok"), in.Send(channel.Packet{Type: channel.Results, Final: true, Frame: frame})
}

// soleHolders is the paper query over P2's Q1 and P3's Q2, each the only
// peer the root knows for its pattern.
func soleHolders() *plan.Plan {
	q := gen.PaperQuery()
	return &plan.Plan{Query: q, Root: plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))}
}

// --- scenarios ---

func faultFree(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	r := rig.run(plan1())
	wantAnswer(t, r, truth(t, rig.all()...))
	for _, le := range rig.root.Ledger() {
		if le.Outcome != "complete" {
			t.Errorf("ledger entry %+v", le)
		}
	}
	if r.m.Retries != 0 || r.m.Migrations != 0 || r.m.Replans != 0 {
		t.Errorf("a fault-free run recovered: %+v", r.m)
	}
}

// transientRetried loses one request, one site's only frame, and one
// final packet whose site then holds fewer rows than the checkpoint.
func transientRetried(t *testing.T) {
	t.Run("lost request", func(t *testing.T) {
		rig := newLadderRig(t, "P1", "P2", "P3", "P4")
		rig.root.MaxRetries = 1
		rig.net.SetInjector(faults.NewScript(&faults.ScriptRule{To: "P2", Kind: "exec.subplan", Count: 1, Fault: network.Fault{Drop: true}}))
		r := rig.run(plan1())
		wantAnswer(t, r, truth(t, rig.all()...))
		if r.m.Retries != 1 || r.m.BackoffMS != retryBackoffMS || r.m.RetryAfterHonored != 0 {
			t.Errorf("want one blind retry after %d ms, got %+v", retryBackoffMS, r.m)
		}
	})
	// A site that answers in one frame and loses it leaves no checkpoint:
	// no contiguous prefix exists short of the final packet, so the retry
	// re-fetches from row 0. This is intended.
	t.Run("one-frame answer loses its final packet", func(t *testing.T) {
		rig := newLadderRig(t, "P1", "P2", "P3", "P4")
		rig.root.MaxRetries = 1
		rig.sites["P2"].BatchSize = 256
		var from []int
		rig.net.SetInjector(&tap{
			on: func(m network.Message) {
				if req, err := channel.DecodeSubplan(m.Payload); err == nil && m.To == "P2" {
					from = append(from, req.ResumeFrom)
				}
			},
			script: faults.NewScript(&faults.ScriptRule{From: "P2", Kind: "chan.packet", Count: 1, Fault: network.Fault{Drop: true}}),
		})
		r := rig.run(plan1())
		wantAnswer(t, r, truth(t, rig.all()...))
		if len(from) != 2 || from[1] != 0 || r.m.Retries != 1 || r.m.Resumes != 0 {
			t.Errorf("requests to P2 resumed from %v, metrics %+v; want a retry from row 0", from, r.m)
		}
	})
	// P4 streams Q1 in one-row frames, loses the final one, and its base
	// shrinks before the retry: the retry's checkpoint (two rows) is past
	// what P4 now answers, so P4 rejects it and re-streams from row 0,
	// and the root drops the two rows it held.
	t.Run("checkpoint rejected", func(t *testing.T) {
		rig := newLadderRig(t, "P1", "P2", "P3", "P4")
		rig.root.MaxRetries = 1
		p4 := rig.bases["P4"]
		var prop4 []rdf.Triple
		for _, tr := range p4.Triples() {
			if tr.P.Value == string(gen.N1("prop4")) {
				prop4 = append(prop4, tr)
			}
		}
		if len(prop4) != 3 {
			t.Fatalf("P4 holds %d prop4 triples, want 3", len(prop4))
		}
		rig.net.SetInjector(&tap{
			on: func(m network.Message) {
				if req, err := channel.DecodeSubplan(m.Payload); err == nil && m.To == "P4" && req.ResumeFrom > 0 {
					p4.Remove(prop4[0])
					p4.Remove(prop4[1])
				}
			},
			script: faults.NewScript(&faults.ScriptRule{From: "P4", Kind: "chan.packet", After: 2, Count: 1, Fault: network.Fault{Drop: true}}),
		})
		r := rig.run(plan1())
		wantAnswer(t, r, truth(t, rig.all()...))
		if r.m.Retries != 1 || r.m.RowsDiscarded != 2 || r.m.Resumes != 0 || r.m.PlanChanges != 1 {
			t.Errorf("want P4 to reject a two-row checkpoint, got %+v", r.m)
		}
		for _, le := range rig.root.Ledger() {
			if le.Site == "P4" && le.Patterns == "Q1" && (le.Rows != 1 || le.Resumed) {
				t.Errorf("P4's Q1 entry %+v, want one row re-streamed", le)
			}
		}
	})
}

func transientAfterRefusal(t *testing.T) {
	rig := newLadderRig(t)
	rig.root.MaxRetries = 1
	rig.hijack("P4", func(call int, srv *Engine, msg network.Message) ([]byte, error) {
		switch call {
		case 1:
			return sendRefused(srv, msg)
		case 2:
			return nil, &network.DeliveryError{Reason: network.ReasonDropped, Transient: true}
		}
		return srv.handleSubplan(msg)
	})
	r := rig.run(plan1())
	wantAnswer(t, r, truth(t, rig.all()...))
	if r.m.Retries != 2 {
		t.Errorf("Retries = %d, want 2: the refusal's extra retry covers the transient loss after it", r.m.Retries)
	}
}

func lostRequestNoRouter(t *testing.T) {
	rig := newLadderRig(t)
	rig.net.SetInjector(faults.NewScript(&faults.ScriptRule{To: "P2", Kind: "exec.subplan", Count: 1, Fault: network.Fault{Drop: true}}))
	r := rig.run(plan1())
	wantPeerFailure(t, r, "P2")
	if r.m.Retries != 0 || r.m.Migrations != 0 || r.m.Replans != 0 {
		t.Errorf("with no retries and no router nothing recovers, got %+v", r.m)
	}
	if le := rig.root.Ledger(); le[len(le)-1].Outcome != "failed" || le[len(le)-1].Site != "P2" {
		t.Errorf("ledger %+v, want P2's failure last", le)
	}
}

func overloadRetried(t *testing.T) {
	rig := newLadderRig(t)
	rig.root.MaxRetries = 1
	rig.hijack("P2", func(call int, srv *Engine, msg network.Message) ([]byte, error) {
		if call == 1 {
			return nil, overloaded()
		}
		return srv.handleSubplan(msg)
	})
	r := rig.run(plan1())
	wantAnswer(t, r, truth(t, rig.all()...))
	if r.m.Retries != 1 || r.m.RetryAfterHonored != 1 || r.m.BackoffMS != hintOf(t, overloaded()) {
		t.Errorf("want one retry after the hint, got %+v", r.m)
	}
}

func overloadNoRetry(t *testing.T) {
	rig := newLadderRig(t)
	rig.hijack("P2", func(int, *Engine, network.Message) ([]byte, error) { return nil, overloaded() })
	r := rig.run(plan1())
	wantPeerFailure(t, r, "P2")
	if !admission.IsOverload(r.err) || r.m.Retries != 0 {
		t.Errorf("want the rejection, unretried: %v, %+v", r.err, r.m)
	}
}

func hopelessOverload(t *testing.T) {
	rig := newLadderRig(t)
	rig.root.MaxRetries = 2
	rig.hijack("P2", func(int, *Engine, network.Message) ([]byte, error) { return nil, hopelessErr() })
	r := rig.run(plan1())
	wantPeerFailure(t, r, "P2")
	if r.m.Retries != 0 {
		t.Errorf("a hopeless rejection burned %d retries", r.m.Retries)
	}
}

// refusedOnce empties the root's table of P4 while a request that
// states it is in flight (see TestMirrorRefusesFrameBeyondTable).
func refusedOnce(t *testing.T) {
	rig := newLadderRig(t)
	rig.ask(t, plan1())
	rig.ask(t, plan1()) // fills the mirror
	reset := false
	rig.net.SetInjector(&tap{on: func(m network.Message) {
		if m.Kind != "exec.subplan" || m.To != "P4" || reset {
			return
		}
		reset = true
		mm := rig.root.mirror.Load()
		mm.mu.Lock()
		mm.sites["P4"].ids = nil
		mm.mu.Unlock()
	}})
	r := rig.run(plan1())
	wantAnswer(t, r, truth(t, rig.all()...))
	if r.m.Retries != 1 {
		t.Errorf("Retries = %d with MaxRetries 0, want the refusal's 1", r.m.Retries)
	}
}

func refusedTwice(t *testing.T) {
	rig := newLadderRig(t)
	rig.hijack("P4", func(_ int, srv *Engine, msg network.Message) ([]byte, error) { return sendRefused(srv, msg) })
	r := rig.run(plan1())
	wantPeerFailure(t, r, "P4")
	if !refused(r.err) || r.m.Retries != 1 {
		t.Errorf("want one refusal retried and the second surfaced: %v, %+v", r.err, r.m)
	}
}

// cancelledTry aborts the round while P2's final packet is lost, and
// aborts another round before its leaf dispatches at all.
func cancelledTry(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.MaxRetries = 2
	q := gen.PaperQuery()
	ex := newExecution(rig.root)
	defer ex.closeAll()
	rig.net.SetInjector(&tap{
		on: func(m network.Message) {
			if m.From == "P2" && m.Kind == "chan.packet" {
				ex.abort()
			}
		},
		script: faults.NewScript(&faults.ScriptRule{From: "P2", Kind: "chan.packet", After: 2, Count: 1, Fault: network.Fault{Drop: true}}),
	})
	_, err := ex.runRemote("P2", plan.NewScan(q.Patterns[0], "P2"), nil)
	var pf *PeerFailure
	if !errors.As(err, &pf) || pf.Peer != "P2" {
		t.Fatalf("want P2's PeerFailure, got %v", err)
	}
	if m := rig.root.Metrics(); m.Retries != 0 || m.Migrations != 0 {
		t.Errorf("an aborting round retried or migrated: %+v", m)
	}
	if _, ok := rig.root.Router.Registry.Get("P2"); !ok {
		t.Error("an aborting round dropped P2 from routing")
	}

	before := rig.root.Metrics().SubplansShipped
	ex2 := newExecution(rig.root)
	defer ex2.closeAll()
	ex2.abort()
	if _, err := ex2.runRemote("P3", plan.NewScan(q.Patterns[1], "P3"), nil); !errors.Is(err, errCancelled) {
		t.Errorf("a leaf of an aborted round answered %v, want errCancelled", err)
	}
	if rig.root.Metrics().SubplansShipped != before {
		t.Error("a leaf of an aborted round shipped its subplan")
	}
}

func failurePacket(t *testing.T) {
	rig := newLadderRig(t)
	rig.root.MaxRetries = 2
	rig.hijack("P2", func(_ int, srv *Engine, msg network.Message) ([]byte, error) { return sendFailure(srv, msg) })
	r := rig.run(plan1())
	wantPeerFailure(t, r, "P2")
	if !strings.Contains(r.err.Error(), "disk on fire") || r.m.Retries != 0 {
		t.Errorf("want the remote failure, unretried: %v, %+v", r.err, r.m)
	}
}

// twins runs plan1 with P4 crashing after its first packet, migrating
// and with migration off, and checks both give one answer.
func twins(t *testing.T) (migrated, restarted ran) {
	t.Helper()
	var answers [2]string
	var runs [2]ran
	for i, off := range []bool{false, true} {
		rig := newLadderRig(t, "P1", "P2", "P3", "P4")
		rig.root.MaxRetries = 1
		rig.root.DisableMigration = off
		rig.net.SetInjector(faults.NewScript(&faults.ScriptRule{From: "P4", Kind: "chan.packet", After: 1, Fault: network.Fault{Drop: true}}))
		runs[i] = rig.run(plan1())
		if runs[i].err != nil || !runs[i].comp.Complete {
			t.Fatalf("DisableMigration=%v: %v %+v", off, runs[i].err, runs[i].comp)
		}
		answers[i] = answer(runs[i].rows)
	}
	if answers[0] != answers[1] {
		t.Fatalf("migrated answer:\n%s\nrestarted answer:\n%s", answers[0], answers[1])
	}
	return runs[0], runs[1]
}

func migrated(t *testing.T) {
	m, _ := twins(t)
	if m.m.Migrations != 2 || m.m.Replans != 0 {
		t.Errorf("want P4's two subplans migrated and no replan, got %+v", m.m)
	}
}

func restarted(t *testing.T) {
	_, r := twins(t)
	if r.m.Migrations != 0 || r.m.Replans != 1 {
		t.Errorf("want no migration and one replan, got %+v", r.m)
	}
}

// soleHolder runs soleHolders with P3 down: no other peer covers Q2, so
// migration declines and the round's replan leaves Q2 a hole.
func soleHolder(t *testing.T, partial bool) (*mirrorRig, ran) {
	t.Helper()
	rig := newLadderRig(t, "P2", "P3")
	rig.root.AllowPartial = partial
	rig.net.Fail("P3")
	r := rig.run(soleHolders())
	if r.m.Migrations != 0 {
		t.Errorf("migrated with no alternate: %+v", r.m)
	}
	return rig, r
}

func soleHolderStrict(t *testing.T) {
	rig, r := soleHolder(t, false)
	wantFailedReplan(t, r, "P3")
	rig.wantReplans(t)
}

func soleHolderPartial(t *testing.T) {
	rig, r := soleHolder(t, true)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.comp.Complete || len(r.comp.Unanswered) != 1 || r.comp.Unanswered[0].PatternID != "Q2" ||
		!strings.Contains(r.comp.Unanswered[0].Reason, "P3") {
		t.Errorf("completeness %+v, want Q2 unanswered for P3's failure", r.comp)
	}
	q1 := rql.EvalPathPatternBatch(rig.bases["P2"], gen.PaperSchema(), gen.PaperQuery().Patterns[0])
	if r.rows.Len() != q1.Len() || r.m.PartialAnswers != 1 {
		t.Errorf("want P2's %d Q1 rows as a partial answer, got %d, %+v", q1.Len(), r.rows.Len(), r.m)
	}
	rig.wantReplans(t, "failure-partial")
}

// budgetSpent downs every site but the root: the round migrates three
// failed subtrees, the fourth fails the round, and the replan answers
// from P1 alone, reported complete: the completeness annotation does
// not name holders that did not answer.
func budgetSpent(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	for _, id := range []pattern.PeerID{"P2", "P3", "P4"} {
		rig.net.Fail(id)
	}
	r := rig.run(plan1())
	wantAnswer(t, r, truth(t, rig.all("P1")...))
	if r.m.Migrations != maxMigrations || r.m.Replans != 1 {
		t.Errorf("want %d migrations, then a replan, got %+v", maxMigrations, r.m)
	}
	rig.wantReplans(t, "failure")
}

func holeFilled(t *testing.T) {
	q := gen.PaperQuery()
	full := newLadderRig(t)
	want := full.run(&plan.Plan{Query: q, Root: plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"),
		plan.NewUnion(plan.NewScan(q.Patterns[1], "P1"), plan.NewScan(q.Patterns[1], "P3"), plan.NewScan(q.Patterns[1], "P4")))})
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.AllowPartial = true
	r := rig.run(&plan.Plan{Query: q, Root: plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewHole(q.Patterns[1]))})
	wantAnswer(t, r, answer(want.rows))
	if r.m.HolesFilled != 1 || r.m.Replans != 0 {
		t.Errorf("want the hole filled mid-flight, got %+v", r.m)
	}
}

// holeAbsent runs Q1 at P2 joined with a Q2 hole that stays unfilled.
func holeAbsent(t *testing.T, rig *mirrorRig) {
	t.Helper()
	rig.root.AllowPartial = true
	q := gen.PaperQuery()
	r := rig.run(&plan.Plan{Query: q, Root: plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewHole(q.Patterns[1]))})
	if r.err != nil {
		t.Fatal(r.err)
	}
	want := []Unanswered{{PatternID: "Q2", Reason: "no peer advertises this pattern"}}
	if r.comp.Complete || len(r.comp.Unanswered) != 1 || r.comp.Unanswered[0] != want[0] {
		t.Errorf("completeness %+v, want %+v", r.comp, want)
	}
	if q1 := rql.EvalPathPatternBatch(rig.bases["P2"], gen.PaperSchema(), q.Patterns[0]); r.rows.Len() != q1.Len() {
		t.Errorf("answer has %d rows, want P2's %d Q1 rows", r.rows.Len(), q1.Len())
	}
}

func holeRouterless(t *testing.T) { holeAbsent(t, newLadderRig(t)) }

func holeUnadvertised(t *testing.T) { holeAbsent(t, newLadderRig(t, "P2")) }

// throughput runs p under a throughput floor no site streams.
func throughput(t *testing.T, rig *mirrorRig, p *plan.Plan) ran {
	t.Helper()
	rig.root.Throughput = optimizer.NewThroughputMonitor(1000)
	return rig.run(p)
}

// throughputReplan replans around every site: the answer is P1's alone,
// reported complete, because the completeness annotation does not name
// the remote holders the replan dropped.
func throughputReplan(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.Tracer = obs.NewTracer()
	r := throughput(t, rig, plan1())
	wantAnswer(t, r, truth(t, rig.all("P1")...))
	rig.wantReplans(t, "throughput")
}

func throughputSoleHolders(t *testing.T) {
	rig := newLadderRig(t, "P2", "P3")
	r := throughput(t, rig, soleHolders())
	wantAnswer(t, r, truth(t, rig.all("P2", "P3")...))
	rig.wantReplans(t)
}

func throughputNoRouter(t *testing.T) {
	rig := newLadderRig(t)
	r := throughput(t, rig, plan1())
	wantAnswer(t, r, truth(t, rig.all()...))
	rig.wantReplans(t)
}

// replicaRig serves P5 and P6, copies of P2, and downs the Q1 holders
// named; with migration off each failure costs a replan.
func replicaRig(t *testing.T, down ...pattern.PeerID) *mirrorRig {
	t.Helper()
	rig := newLadderRig(t, "P1", "P2", "P3", "P4", "P5", "P6")
	rig.replicate("P5", "P6")
	rig.root.DisableMigration = true
	for _, id := range down {
		rig.net.Fail(id)
	}
	return rig
}

func throughputAfterReplans(t *testing.T) {
	rig := replicaRig(t, "P2", "P4", "P5")
	r := throughput(t, rig, rig.routed(t))
	wantAnswer(t, r, truth(t, rig.all("P1", "P3", "P6")...))
	rig.wantReplans(t, "failure", "failure", "failure")
}

func replansSpent(t *testing.T) {
	rig := replicaRig(t, "P2", "P4", "P5", "P6")
	r := rig.run(rig.routed(t))
	wantPeerFailure(t, r, "P6")
	rig.wantReplans(t, "failure", "failure", "failure")
}

// disconnectedQuery plans a query whose patterns share no variable: a
// replan cannot generate a plan for it at all, so even a partial answer
// is out of reach.
func disconnectedQuery(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.AllowPartial = true
	rig.root.DisableMigration = true
	rig.net.Fail("P2")
	q := gen.PaperQuery()
	q2 := q.Patterns[1]
	q2.SubjectVar, q2.ObjectVar = "A", "B"
	query := &pattern.QueryPattern{SchemaName: q.SchemaName, Patterns: []pattern.PathPattern{q.Patterns[0], q2}}
	r := rig.run(&plan.Plan{Query: query, Root: plan.NewScan(q.Patterns[0], "P2")})
	wantFailedReplan(t, r, "P2")
}

func unencodable(t *testing.T) {
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.AllowPartial = true
	r := rig.run(&plan.Plan{Query: gen.PaperQuery(), Root: &plan.Scan{Peer: "P2"}})
	if r.err == nil || !strings.Contains(r.err.Error(), "marshal subplan") {
		t.Fatalf("want the encoding error, got %v", r.err)
	}
	if r.m.SubplansShipped != 0 || r.m.Replans != 0 {
		t.Errorf("an unencodable subplan shipped or replanned: %+v", r.m)
	}
}
