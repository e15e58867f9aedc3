package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"

	"sqpeer/internal/admission"
	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/membership"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

func init() {
	register("observe", "CLAIM-OBSERVE: live operations plane — unified event log, flight recorder, SLO burn-rate monitor", claimObserve)
}

// Observation-plane scenario geometry: the Figure-2/3 fixture hardened
// like CLAIM-FAULT (deadlines, bounded retry, quarantine, partial
// answers), running membership detectors like CLAIM-MEMBER and a
// HoldMS-leased admission controller like CLAIM-OVERLOAD, under a 10%
// fault schedule whose crashes outlast the confirm-dead bound. The mix
// is chosen so every reconciled event family actually fires: gray
// failures and crashes drive retries and migrations, confirmed deaths
// drive condemnations, and gold work leases admitted mid-flight (the
// goldBurst injector) push occupancy over the Low watermark so bronze
// subplans shed.
const (
	observeSeed       = 20240805
	observeRounds     = 30
	observeRate       = 0.10
	observeCrashLen   = 6
	observeMaxConc    = 6
	observeHoldMS     = 3000.0
	observeBurstEvery = 1
)

// observeRun is one seeded pass.
type observeRun struct {
	answerDigest uint64 // outcomes and rows only: comparable across plane on/off
	simMS        float64
	bytes        int
	full         int
	partial      int
	failed       int

	// Plane-on extras (zero values when the plane is off).
	jsonl                                                       []byte
	events                                                      *obs.EventLog
	reg                                                         *obs.Registry
	rootRec                                                     *obs.FlightRecorder
	alerts                                                      []obs.Alert
	sloDumps                                                    int
	execShed, admShed, migrations, condemns, suspects, confirms int
}

// claimObserve runs the operations-plane claim: with the plane on, the
// unified event log is byte-identical across same-seed reruns, every
// plane counter reconciles exactly with its event count through the
// Prometheus scrape, anomalies freeze flight-recorder dumps carrying the
// query's span subtree and row ledger, SLO burn-rate alerts fire and
// trip dumps — and turning the whole plane off changes neither the
// answers nor (within 2%) the simulated latency and network bytes.
func claimObserve() *Report {
	r := &Report{ID: "observe", Title: "CLAIM-OBSERVE: live operations plane — unified event log, flight recorder, SLO burn-rate monitor", Pass: true}

	run := runObserveScenario(observeSeed, true)
	rerun := runObserveScenario(observeSeed, true)
	ablation := runObserveScenario(observeSeed, false)

	deterministic := bytes.Equal(run.jsonl, rerun.jsonl) && run.answerDigest == rerun.answerDigest
	answersEqual := run.answerDigest == ablation.answerDigest
	latPct := pctOver(run.simMS, ablation.simMS)
	bytePct := pctOver(float64(run.bytes), float64(ablation.bytes))

	// Reconcile every plane counter against its event count through the
	// exposition surface itself: render the registry to Prometheus text,
	// parse it back, and sum the family.
	promText := run.reg.PromText()
	samples, parseErr := obs.ParsePromText(promText)
	families := []struct {
		counter string
		events  int
	}{
		{"exec_subplans_shipped_total", run.events.CountBy("exec", "dispatch")},
		{"exec_retries_total", run.events.CountBy("exec", "retry")},
		{"exec_resumes_total", run.events.CountBy("exec", "resume")},
		{"exec_replans_total", run.events.CountBy("exec", "replan")},
		{"exec_shed_total", run.events.CountBy("exec", "shed")},
		{"adm_shed_total", run.events.CountBy("admission", "shed")},
		{"exec_migrations_total", run.events.CountBy("exec", "migrate")},
		{"routing_health_condemnations_total", run.events.CountBy("health", "condemn")},
		{"member_suspects_total", run.events.CountBy("membership", "suspect")},
		{"member_confirmed_dead_total", run.events.CountBy("membership", "confirm-dead")},
	}

	dumps := run.rootRec.Dumps()
	var dumpReasons []string
	contextualDumps := 0
	for _, d := range dumps {
		dumpReasons = append(dumpReasons, d.Reason)
		if d.Context["spans"] != nil && d.Context["ledger"] != nil && len(d.Events) > 0 {
			contextualDumps++
		}
	}
	var alertNames []string
	for _, a := range run.alerts {
		alertNames = append(alertNames, a.Rule)
	}

	byComponent := map[string]int{}
	for _, ev := range run.events.Events() {
		byComponent[ev.Component]++
	}
	var comps []string
	for c := range byComponent {
		comps = append(comps, c)
	}
	sort.Strings(comps)

	r.linef("  %d rounds at %.0f%% faults: %d full, %d partial, %d rejected/failed", observeRounds, observeRate*100, run.full, run.partial, run.failed)
	line := fmt.Sprintf("  event log: %d events (", run.events.Len())
	for i, c := range comps {
		if i > 0 {
			line += ", "
		}
		line += fmt.Sprintf("%s %d", c, byComponent[c])
	}
	r.Lines = append(r.Lines, line+")")
	allReconciled, allNonzero := true, true
	for _, f := range families {
		metric := promTotal(samples, f.counter)
		allReconciled = allReconciled && metric == f.events
		allNonzero = allNonzero && metric > 0
		r.linef("  reconcile %-36s counter=%-4d events=%-4d", f.counter, metric, f.events)
	}
	r.linef("  flight recorder: %d dumps %v (%d with span subtree + ledger context)", len(dumps), dumpReasons, contextualDumps)
	r.linef("  slo: %d alerts %v, %d alert-tripped dumps", len(run.alerts), alertNames, run.sloDumps)
	r.linef("  overhead vs plane-off: latency %+.2f%% (%.0fms vs %.0fms), bytes %+.2f%% (%d vs %d)",
		latPct, run.simMS, ablation.simMS, bytePct, run.bytes, ablation.bytes)

	r.check("same-seed rerun: event log byte-identical and answers byte-identical", deterministic)
	r.check("every plane counter reconciles exactly with its event count", allReconciled)
	r.check("every reconciled family actually fired (dispatch, retry, resume, replan, shed, migrate, condemn, suspect, confirm-dead)", allNonzero)
	r.check("≥1 anomaly-triggered dump carries the span subtree, ledger and frozen event ring", contextualDumps >= 1)
	r.check("SLO burn-rate alert fired and tripped a recorder dump", len(run.alerts) > 0 && run.sloDumps > 0)
	r.check("/metrics renders as parseable Prometheus text exposition", parseErr == nil && len(samples) > 0)
	r.check("plane-off ablation answers byte-identical", answersEqual)
	r.check("plane overhead <2% simulated latency", latPct < 2)
	r.check("plane overhead <2% network bytes", bytePct < 2)
	return r
}

// pctOver returns how many percent `got` exceeds `base` (0 when base is
// 0 or got is under it).
func pctOver(got, base float64) float64 {
	if base <= 0 || got <= base {
		return 0
	}
	return (got/base - 1) * 100
}

// promTotal sums one counter family across the parsed scrape.
func promTotal(samples []obs.PromSample, counter string) int {
	total := 0.0
	for _, s := range samples {
		if s.Name == counter {
			total += s.Value
		}
	}
	return int(total)
}

// runObserveScenario executes one seeded pass. With plane=true the
// shared event log, per-peer flight recorders, metrics registry, tracer
// and SLO evaluator are wired; with plane=false all of them stay nil —
// the ablation the overhead check compares against (the tracer stays on
// in both passes: tracing predates the plane and feeds the recorder's
// context, so the ablation isolates exactly the new machinery).
func runObserveScenario(seed int64, plane bool) observeRun {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(2)
	net := network.New()
	ids := []pattern.PeerID{"P1", "P2", "P3", "P4"}

	var (
		events  *obs.EventLog
		reg     *obs.Registry
		rootRec *obs.FlightRecorder
	)
	tracer := obs.NewTracer()
	if plane {
		events = obs.NewEventLog(net.NowMS)
		reg = obs.NewRegistry()
	}
	mopts := func() *membership.Options {
		return &membership.Options{Seed: seed}
	}
	planeCfg := func(cfg peer.Config) peer.Config {
		if !plane {
			return cfg
		}
		cfg.Events, cfg.Obs, cfg.FlightRec = events, reg, true
		return cfg
	}

	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range ids {
		p, err := peer.New(planeCfg(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema,
			Base: bases[id], Options: exec.Options{DeadlineMS: 200, BatchSize: 1}, Membership: mopts()}), net)
		if err != nil {
			panic(err)
		}
		peers[id] = p
	}
	rootCtl := admission.NewController(admission.Config{
		MaxConcurrent: observeMaxConc, HoldMS: observeHoldMS, Clock: net.NowMS,
	})
	cfg := planeCfg(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: schema,
		Options:    exec.Options{DeadlineMS: 200, MaxRetries: 3, AllowPartial: true},
		Quarantine: true, Membership: mopts(),
		Admission: rootCtl})
	cfg.Tracer = tracer
	p0, err := peer.New(cfg, net)
	if err != nil {
		panic(err)
	}
	rootRec = p0.Recorder
	for _, id := range ids {
		p0.Learn(peers[id].Advertisement())
		_ = peers[id].Membership.Join("P0")
	}
	net.ResetCounters()

	inj := faults.NewInjector(seed, faults.Rates{
		Drop: 1, Duplicate: 1, DelaySpike: 1, SpikeMS: 300,
	}.Scaled(observeRate))
	// Gold work leases admitted mid-flight, keyed to the subplan traffic
	// itself (the CLAIM-OVERLOAD trick): deterministic occupancy pressure
	// that pushes bronze work over the Low watermark.
	net.SetInjector(&goldBurst{ctl: rootCtl, every: observeBurstEvery, inner: inj})
	sched := faults.NewSchedule(seed, "P0", ids, observeRounds, faults.ScheduleRates{
		Crash: observeRate, CrashLen: observeCrashLen,
		Gray: observeRate, GrayLen: 1, GrayDelayMS: 1000,
		Flap: observeRate,
	})

	var slo *obs.SLOEvaluator
	firedRules := map[string]bool{}
	out := observeRun{events: events, reg: reg, rootRec: rootRec}
	if plane {
		slo = obs.NewSLOEvaluator(reg, net.NowMS, nil)
		slo.OnAlert = func(a obs.Alert) {
			// First alert per rule freezes a post-mortem bundle; later
			// evaluations of a still-burning budget don't re-trigger.
			if firedRules[a.Rule] {
				return
			}
			firedRules[a.Rule] = true
			out.sloDumps++
			rootRec.TriggerDump("slo:"+a.Rule, "", a.TMS)
		}
	}

	tick := func() {
		liveIDs := append([]pattern.PeerID{"P0"}, ids...)
		for _, id := range liveIDs {
			if !net.IsDown(id) {
				peers[id].Membership.Tick()
			}
		}
		p0.Health.Tick()
	}
	peers["P0"] = p0

	h := fnv.New64a()
	for round := 0; round < observeRounds; round++ {
		eff := sched.Apply(round, net, inj)
		for _, id := range eff.Restarted {
			peers[id].Membership.Rejoin()
			p0.Learn(peers[id].Advertisement())
		}
		tick()

		qos := admission.QoS{Tenant: "gold", Priority: admission.High}
		if round%2 == 1 {
			qos = admission.QoS{Tenant: "bronze", Priority: admission.Low}
		}
		res, err := p0.AskAnnotatedAs(gen.PaperRQL, qos)
		switch {
		case err != nil:
			out.failed++
			fmt.Fprintf(h, "%d:error\n", round)
		case res.Completeness.Complete:
			out.full++
			fmt.Fprintf(h, "%d:full:%v\n", round, res.Rows.Sorted())
		default:
			out.partial++
			var unanswered []string
			for _, u := range res.Completeness.Unanswered {
				unanswered = append(unanswered, u.PatternID)
			}
			fmt.Fprintf(h, "%d:partial:%v:%v\n", round, unanswered, res.Rows.Sorted())
		}
		if slo != nil {
			slo.Eval()
		}
		// Think time past the lease hold so every round's query is
		// admitted at occupancy zero; shedding then comes from the gold
		// bursts pumping occupancy mid-flight, not facade rejections.
		net.AdvanceMS(observeHoldMS)
	}
	out.answerDigest = h.Sum64()
	c := net.Counters()
	out.simMS, out.bytes = c.SimulatedMS, c.Bytes
	if plane {
		out.jsonl = events.JSONL()
		out.alerts = slo.Alerts()
		m := p0.Engine.Metrics()
		out.execShed, out.migrations = m.Shed, m.Migrations
	}
	return out
}
