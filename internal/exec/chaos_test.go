package exec_test

import (
	"runtime"
	"testing"
	"time"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/routing"
)

// TestChaosSoak interleaves a seeded fault schedule — crashes/restarts,
// gray failure, flapping links, plus stochastic drop/duplicate/delay on
// every delivery — with concurrent in-flight executions, under -race via
// `make check`. P1 (the root) is never faulted and covers both query
// patterns itself, so every query must complete despite the chaos: via
// subplan migration, retry, quarantine-aware replanning, or in the worst
// case a plan collapsed onto P1 alone. The soak runs once per recovery
// mode — the default migrating engine and the DisableMigration full-restart
// ablation — so both recovery paths stay exercised under -race. A
// watchdog bounds each round so a wedged dispatch fails the test instead
// of hanging it, and goroutine counts are compared before/after to catch
// leaks.
func TestChaosSoak(t *testing.T) {
	t.Run("migrate", func(t *testing.T) { chaosSoak(t, false) })
	t.Run("restart", func(t *testing.T) { chaosSoak(t, true) })
}

func chaosSoak(t *testing.T, restart bool) {
	const (
		seed       = 20240805
		rounds     = 25
		concurrent = 3
	)
	peers, net := paperSystem(t, 2)
	p1 := peers["P1"]
	p1.Engine.DeadlineMS = 200
	p1.Channels.DeadlineMS = 200
	p1.Engine.MaxRetries = 2
	p1.Engine.DisableMigration = restart
	p1.Engine.Health = routing.NewHealth(p1.Registry)

	inj := faults.NewInjector(seed, faults.Rates{
		Drop: 0.05, Duplicate: 0.05, DelaySpike: 0.05, SpikeMS: 300,
	})
	net.SetInjector(inj)
	volatile := []pattern.PeerID{"P2", "P3", "P4"}
	sched := faults.NewSchedule(seed, "P1", volatile, rounds, faults.ScheduleRates{
		Crash: 0.15, CrashLen: 1,
		Gray: 0.10, GrayLen: 1, GrayDelayMS: 1000,
		Flap: 0.10,
	})
	if len(sched.Events) == 0 {
		t.Fatal("schedule generated no fault events; chaos test is vacuous")
	}

	baseline := runtime.NumGoroutine()
	want := groundTruth(t, peers, gen.PaperRQL)
	successes, failures := 0, 0
	for round := 0; round < rounds; round++ {
		eff := sched.Apply(round, net, inj)
		for _, id := range eff.Restarted {
			p1.Learn(peers[id].Advertisement()) // re-advertise after restart
		}
		p1.Engine.Health.Tick()

		done := make(chan error, concurrent)
		for i := 0; i < concurrent; i++ {
			go func() {
				rows, err := p1.Ask(gen.PaperRQL)
				if err == nil && rows.Len() > want.Len() {
					t.Errorf("round %d: %d rows exceeds ground truth %d", round, rows.Len(), want.Len())
				}
				done <- err
			}()
		}
		for i := 0; i < concurrent; i++ {
			select {
			case err := <-done:
				if err == nil {
					successes++
				} else {
					failures++
					t.Logf("round %d: query failed: %v", round, err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("round %d: watchdog expired — execution wedged", round)
			}
		}
	}
	if failures != 0 {
		t.Errorf("%d/%d chaos queries failed; P1 covers both patterns, all must succeed",
			failures, successes+failures)
	}

	m := p1.Engine.Metrics()
	t.Logf("recovery under chaos: retries=%d migrations=%d replans=%d resumes=%d",
		m.Retries, m.Migrations, m.Replans, m.Resumes)
	if m.Retries+m.Migrations+m.Replans == 0 {
		t.Error("soak exercised no recovery machinery; fault schedule is vacuous")
	}
	if restart && m.Migrations != 0 {
		t.Errorf("DisableMigration ablation still migrated %d times", m.Migrations)
	}

	// Goroutine accounting: executions join their branch goroutines
	// before returning, so the count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d now vs %d baseline\n%s", n, baseline,
			buf[:runtime.Stack(buf, true)])
	}
}
