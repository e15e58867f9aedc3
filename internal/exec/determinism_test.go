package exec

import (
	"fmt"
	"strings"
	"testing"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
)

// faultScript runs a script of queries on a fresh Figure-2 rig under a
// seeded injector (1 % drops, duplicates and 300 ms delay spikes) with
// the root hardened: retries, a 200 ms deadline, partial answers, a
// router to migrate and replan with. Every query restores the four
// advertisements, so a failure in one query does not empty the next
// one's routing. It renders each query's answer, completeness, error,
// metrics and ledger, then the network's counters and the faults drawn.
func faultScript(t *testing.T, seed int64, queries int) (string, faults.InjectorStats) {
	t.Helper()
	rig := newLadderRig(t, "P1", "P2", "P3", "P4")
	rig.root.MaxRetries = 3
	rig.root.AllowPartial = true
	inj := faults.NewInjector(seed, faults.Rates{Drop: 0.01, Duplicate: 0.01, DelaySpike: 0.01, SpikeMS: 300})
	rig.net.SetInjector(inj)
	ads := gen.PaperActiveSchemas()
	var out strings.Builder
	for q := 0; q < queries; q++ {
		for id, as := range ads {
			rig.root.Router.Registry.Register(id, as)
		}
		r := rig.run(plan1())
		rows := "<nil>"
		if r.rows != nil {
			rows = answer(r.rows)
		}
		fmt.Fprintf(&out, "query %d: err %v\n%s\n%+v\n%+v\n%+v\n", q, r.err, rows, r.comp, r.m, rig.root.Ledger())
	}
	fmt.Fprintf(&out, "network %+v\n", rig.net.Counters())
	return out.String(), inj.Stats()
}

// TestFaultRunsRepeatAtDefaultOptions runs one fault script twice, on
// fresh systems, for several seeds, with no option that orders the
// execution: the answers, metrics, ledgers, network counters and the
// faults drawn must be the same both times. An execution walks its plan
// on one goroutine, so its deliveries, and with them the injector's
// draws, come in one order.
func TestFaultRunsRepeatAtDefaultOptions(t *testing.T) {
	var faulted, retried int
	for seed := int64(1); seed <= 5; seed++ {
		first, stats := faultScript(t, seed, 30)
		second, again := faultScript(t, seed, 30)
		if first != second || stats != again {
			t.Fatalf("seed %d: two runs differ\nfirst (%+v):\n%s\nsecond (%+v):\n%s", seed, stats, first, again, second)
		}
		faulted += stats.Dropped + stats.Duplicated + stats.Delayed
		retried += strings.Count(first, "Retries:") - strings.Count(first, "Retries:0 ")
	}
	t.Logf("%d faults drawn, %d queries retried", faulted, retried)
	if faulted == 0 || retried == 0 {
		t.Fatalf("vacuous: %d faults drawn, %d queries retried", faulted, retried)
	}
}
