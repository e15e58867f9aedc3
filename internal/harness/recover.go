package harness

import (
	"fmt"
	"hash/fnv"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
)

func init() {
	register("recover", "CLAIM-RECOVER: mid-flight subplan migration vs full restart — checkpointed recovery (§2.4/§2.5)", claimRecover)
}

// recoverModeRun is one controlled-scenario pass in one recovery mode.
type recoverModeRun struct {
	Mode             string // "migrate" or "restart"
	AnswerRows       int
	AnswerDigest     string
	Migrations       int
	Replans          int
	Retries          int
	RowsFetched      int // all completed remote fetches
	RowsFetchedFinal int // fetches feeding the final answer
	RowsRefetched    int
	RowsRetained     int
	RowsDiscarded    int
	DuplicateFetches int // same (site, patterns) completed twice
}

// runRecoverControlled executes the controlled scenario in one recovery
// mode: P4 crashes after its first result packet of a 1-row-per-packet
// stream, mid-query. With migration enabled the engine re-dispatches only
// P4's subtrees; in "restart" mode migration is off and it discards and
// restarts.
func runRecoverControlled(mode string) recoverModeRun {
	peers, net := paperSystem(3)
	p1 := peers["P1"]
	p1.Engine.MaxRetries = 1
	peers["P4"].Engine.BatchSize = 1 // the serving peer sets its frames
	p1.Engine.DisableMigration = mode == "restart"
	net.SetInjector(faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: 1,
		Fault: network.Fault{Drop: true},
	}))
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		panic(err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		panic(fmt.Sprintf("recover: %s mode failed: %v", mode, err))
	}
	m := p1.Engine.Metrics()
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", rows.Sorted())

	out := recoverModeRun{
		Mode: mode, AnswerRows: rows.Len(),
		AnswerDigest: fmt.Sprintf("%016x", h.Sum64()),
		Migrations:   m.Migrations, Replans: m.Replans, Retries: m.Retries,
		RowsRefetched: m.RowsRefetched, RowsRetained: m.RowsRetained,
		RowsDiscarded: m.RowsDiscarded,
	}
	// Ledger reconciliation: every completed remote fetch, keyed by
	// (site, patterns). A key completed twice is a duplicate fetch — the
	// exactly-once violation the checkpoint protocol exists to prevent.
	seen := map[string]bool{}
	lastAttempt := 0
	for _, le := range p1.Engine.Ledger() {
		if le.Outcome == "complete" && le.Attempt > lastAttempt {
			lastAttempt = le.Attempt
		}
	}
	for _, le := range p1.Engine.Ledger() {
		if le.Outcome != "complete" {
			continue
		}
		out.RowsFetched += le.Rows
		if le.Attempt == lastAttempt {
			out.RowsFetchedFinal += le.Rows
		}
		key := string(le.Site) + "\x00" + le.Patterns
		if seen[key] {
			out.DuplicateFetches++
		}
		seen[key] = true
	}
	return out
}

// claimRecover validates the plan-change protocol end to end.
//
// Controlled scenario (deterministic, same crash in both modes): the
// migrated answer must be byte-identical to the from-scratch restart's,
// with exactly-once accounting — the migration run fetches each (site,
// subplan) once, retained + migrated fetches equal the restart's final
// round, and nothing is fetched twice. Sweep scenario: under the PR-2
// stochastic schedule at a 10% fault rate, migration re-fetches strictly
// fewer rows than the restart ablation, with both modes same-seed
// deterministic.
func claimRecover() *Report {
	r := &Report{ID: "recover", Title: "CLAIM-RECOVER: mid-flight subplan migration vs full restart — checkpointed recovery (§2.4/§2.5)", Pass: true}
	const (
		seed   = 20240805
		rounds = 30
		rate   = 0.1
	)

	// Part A: controlled mid-stream crash, migration vs restart ablation.
	mig := runRecoverControlled("migrate")
	rst := runRecoverControlled("restart")
	r.linef("  controlled crash (P4 dies after 1 of 3 result rows):")
	r.linef("  %-8s %6s %6s %8s %8s %10s %10s %8s", "mode", "rows", "migr", "replans", "fetched", "refetched", "retained", "dupes")
	for _, m := range []recoverModeRun{mig, rst} {
		r.linef("  %-8s %6d %6d %8d %8d %10d %10d %8d",
			m.Mode, m.AnswerRows, m.Migrations, m.Replans, m.RowsFetched,
			m.RowsRefetched, m.RowsRetained, m.DuplicateFetches)
	}
	r.check("(a) migration yields the identical final answer as a from-scratch restart",
		mig.AnswerDigest == rst.AnswerDigest && mig.AnswerRows == rst.AnswerRows)
	r.check("migration mode migrates without replanning; ablation replans without migrating",
		mig.Migrations > 0 && mig.Replans == 0 && rst.Migrations == 0 && rst.Replans > 0)
	r.check("(b) exactly-once: retained + migrated fetches equal the restart's final round",
		mig.RowsFetched == rst.RowsFetchedFinal)
	r.check("(b) exactly-once: no (site, subplan) fetched twice, nothing refetched under migration",
		mig.DuplicateFetches == 0 && mig.RowsRefetched == 0)
	r.check("restart pays for the crash by refetching completed siblings",
		rst.RowsRefetched > 0 && rst.RowsFetched > mig.RowsFetched)

	// Part B: the PR-2 stochastic schedule at 10%, both modes, same seed.
	migRun := runFaultPoint(seed, rounds, rate, false)
	migRerun := runFaultPoint(seed, rounds, rate, false)
	rstRun := runFaultPoint(seed, rounds, rate, true)
	rstRerun := runFaultPoint(seed, rounds, rate, true)
	migSuccess := migRun.successRate(rounds)
	rstSuccess := rstRun.successRate(rounds)
	r.linef("  stochastic sweep at %.0f%% fault rate, %d rounds:", rate*100, rounds)
	r.linef("  migrate: refetched=%d migrations=%d replans=%d success=%.0f%%",
		migRun.refetched, migRun.migrations, migRun.replans, migSuccess*100)
	r.linef("  restart: refetched=%d migrations=%d replans=%d success=%.0f%%",
		rstRun.refetched, rstRun.migrations, rstRun.replans, rstSuccess*100)
	r.check("(c) migration re-fetches strictly fewer rows than restart at 10% fault rate",
		migRun.refetched < rstRun.refetched)
	r.check("migration machinery exercised under the stochastic schedule",
		migRun.migrations > 0)
	r.check("ablation performs no migrations", rstRun.migrations == 0)
	r.check("same-seed reruns byte-identical in both modes",
		migRun.digest == migRerun.digest && rstRun.digest == rstRerun.digest)
	r.check("migration does not hurt completion rate", migSuccess >= rstSuccess)
	return r
}
