package harness

import (
	"fmt"
	"hash/fnv"

	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

func init() {
	register("fault", "CLAIM-FAULT: fault-injection sweep — deadlines, retry, quarantine, partial answers (§2.5)", claimFault)
}

// faultPointRun is one seeded pass over a sweep point.
type faultPointRun struct {
	full, partial, failed        int
	retries, replans, migrations int
	refetched, retained          int
	backoffMS                    float64
	simMS                        float64
	injected                     int
	events                       int
	digest                       uint64
}

// claimFault sweeps a fault-intensity axis over the Figure-2/3 fixture.
// A hardened client peer P0 (deadlines, bounded retry, quarantine,
// partial answers) queries the paper peers P1..P4 while a seeded
// injector drops/duplicates/delays deliveries and a seeded schedule
// crashes, gray-fails and flaps them. The claim under test: the
// failure-domain hardening degrades gracefully — at a 10% fault rate at
// least 95% of queries still complete (fully or explicitly partially),
// and every same-seed rerun is byte-identical.
func claimFault() *Report {
	r := &Report{ID: "fault", Title: "CLAIM-FAULT: fault-injection sweep — deadlines, retry, quarantine, partial answers (§2.5)", Pass: true}
	const (
		seed   = 20240805
		rounds = 30
	)
	rates := []float64{0, 0.1, 0.2, 0.3}

	var runs []faultPointRun
	var baselinePerQuery float64
	allDeterministic, anyInjected := true, false
	r.linef("  %-6s %8s %6s %8s %7s %8s %8s %6s %9s %12s", "rate", "complete", "full", "partial", "failed", "retries", "replans", "migr", "backoff", "added-lat/q")
	for _, rate := range rates {
		run := runFaultPoint(seed, rounds, rate, false)
		rerun := runFaultPoint(seed, rounds, rate, false)
		allDeterministic = allDeterministic && run.digest == rerun.digest
		if run.injected > 0 || run.events > 0 {
			anyInjected = true
		}
		runs = append(runs, run)

		perQuery := run.simMS / float64(rounds)
		if rate == 0 {
			baselinePerQuery = perQuery
		}
		r.linef("  %-6.2f %7.0f%% %6d %8d %7d %8d %8d %6d %8.0fms %10.1fms",
			rate, run.successRate(rounds)*100, run.full, run.partial, run.failed,
			run.retries, run.replans, run.migrations, run.backoffMS, perQuery-baselinePerQuery)
	}

	p0 := runs[0]
	p10 := runs[1]
	r.check("fault-free baseline: every query fully complete, no retries, replans or migrations",
		p0.full == rounds && p0.retries == 0 && p0.replans == 0 && p0.migrations == 0)
	r.check("≥95% of queries complete (full or partial) at 10% fault rate",
		p10.successRate(rounds) >= 0.95)
	r.check("hardening machinery exercised under faults (retries, replans or migrations > 0)",
		p10.retries+p10.replans+p10.migrations > 0)
	r.check("faults actually injected at nonzero rates", anyInjected)
	r.check("same-seed reruns byte-identical at every fault rate", allDeterministic)
	return r
}

// successRate is the fraction of the pass's queries that completed,
// fully or explicitly partially.
func (run faultPointRun) successRate(rounds int) float64 {
	return float64(run.full+run.partial) / float64(rounds)
}

// runFaultPoint executes one seeded pass: fresh system, fresh injector
// and schedule, `rounds` queries, everything deterministic. The digest
// folds in each round's outcome and row set, so two same-seed passes
// agreeing on the digest means byte-identical answers. restart selects
// the legacy full-restart ablation instead of mid-flight migration.
func runFaultPoint(seed int64, rounds int, rate float64, restart bool) faultPointRun {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(2)
	net := network.New()
	ids := []pattern.PeerID{"P1", "P2", "P3", "P4"}
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range ids {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema,
			Base: bases[id]}, net)
		if err != nil {
			panic(err)
		}
		peers[id] = p
	}
	// P0 is the hardened client root: empty base, per-dispatch deadlines,
	// bounded retry with backoff, quarantine-based health tracking and
	// opt-in partial answers. It is never faulted (schedule root).
	p0, err := peer.New(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: schema,
		Options: exec.Options{DeadlineMS: 200, MaxRetries: 3,
			AllowPartial: true, DisableMigration: restart},
		Quarantine: true}, net)
	if err != nil {
		panic(err)
	}
	for _, id := range ids {
		p0.Learn(peers[id].Advertisement())
	}
	net.ResetCounters()

	inj := faults.NewInjector(seed, faults.Rates{
		Drop: 1, Duplicate: 1, DelaySpike: 1, SpikeMS: 300,
	}.Scaled(rate))
	net.SetInjector(inj)
	sched := faults.NewSchedule(seed, "P0", ids, rounds, faults.ScheduleRates{
		Crash: rate, CrashLen: 1,
		Gray: rate, GrayLen: 1, GrayDelayMS: 1000,
		Flap: rate,
	})

	h := fnv.New64a()
	out := faultPointRun{events: len(sched.Events)}
	for round := 0; round < rounds; round++ {
		eff := sched.Apply(round, net, inj)
		for _, id := range eff.Restarted {
			// A restarting peer re-announces itself; the quarantine (if
			// any) lifts via the health tracker's cool-down, not here.
			p0.Learn(peers[id].Advertisement())
		}
		p0.Health.Tick()

		latBefore := net.Counters().SimulatedMS
		backoffBefore := p0.Engine.Metrics().BackoffMS
		res, err := p0.AskAnnotated(gen.PaperRQL)
		m := p0.Engine.Metrics()
		out.simMS += net.Counters().SimulatedMS - latBefore + (m.BackoffMS - backoffBefore)
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
	}
	m := p0.Engine.Metrics()
	out.retries, out.replans, out.backoffMS = m.Retries, m.Replans, m.BackoffMS
	out.migrations = m.Migrations
	out.refetched, out.retained = m.RowsRefetched, m.RowsRetained
	st := inj.Stats()
	out.injected = st.Dropped + st.Duplicated + st.Delayed + st.Grayed
	out.digest = h.Sum64()
	return out
}
