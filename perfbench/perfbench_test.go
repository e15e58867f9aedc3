package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sqpeer/internal/exec"
)

// tinyScale shrinks every workload so the tests run the real scripts in
// well under a second each.
var tinyScale = map[string]scale{
	"fanout_small":  {peers: 16, chains: 40},
	"churn_update":  {peers: 16, chains: 40, joinChains: 5, updateChains: 2},
	"faulty_fanout": {peers: 16, chains: 40},
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0}, // p90 needs 100 samples for 10 beyond it
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 {
			if beyond := float64(c.n) * (1 - p/100); beyond < 10-1e-9 {
				t.Errorf("n=%d: p%g leaves %.1f samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %g) = %d, want %d", q, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
}

// spin burns CPU on the calling goroutine for at least d of thread CPU.
func spin(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	x := 0
	for threadCPU()-start < d {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	_ = x
}

func TestRusageDeltasAccumulate(t *testing.T) {
	var s sampler
	var want time.Duration
	for i := 0; i < 5; i++ {
		w0, c0 := time.Now(), processCPU()
		spin(2 * time.Millisecond)
		cpu, wall := processCPU()-c0, time.Since(w0)
		if cpu < 2*time.Millisecond {
			t.Fatalf("process CPU delta %v below the %v the thread burned", cpu, 2*time.Millisecond)
		}
		s.add(cpu, wall)
		want += cpu
	}
	if s.n() != 5 || s.totalCPU() != want {
		t.Fatalf("sampler holds %d samples totalling %v, want 5 totalling %v", s.n(), s.totalCPU(), want)
	}
	if got := perSecond(5, s.totalCPU()); got <= 0 || got > 5/(10*time.Millisecond).Seconds() {
		t.Fatalf("perSecond(5, %v) = %g", s.totalCPU(), got)
	}
}

func TestThreadCPUWithinProcessCPU(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := processCPU(), threadCPU()
	spin(5 * time.Millisecond)
	dt := threadCPU() - t0
	dp := processCPU() - p0
	if dt < 5*time.Millisecond || dt > dp {
		t.Fatalf("thread CPU delta %v, process CPU delta %v", dt, dp)
	}
}

// play builds the workload at tiny scale and runs its script once.
func play(t *testing.T, name string, seed int64, ops int, tr *tracer) (*inputs, *outcome) {
	t.Helper()
	in := makeInputs(lookupWorkload(name), seed, ops, tinyScale[name])
	want, err := expectations(in)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := build(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sys.runScript(want)
	if err != nil {
		t.Fatal(err)
	}
	if !newReport(in, o).Correct {
		t.Fatalf("%s seed %d: %d failed, %d wrong: %s", name, seed, o.failed, o.wrong, o.firstError)
	}
	return in, o
}

func TestScriptDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops := 12
			if w.name == "churn_update" {
				ops = 3 * len(churnRound)
			}
			a := makeInputs(w, 7, ops, tinyScale[w.name])
			b := makeInputs(w, 7, ops, tinyScale[w.name])
			if !reflect.DeepEqual(a.script, b.script) || !reflect.DeepEqual(a.data, b.data) {
				t.Fatal("one seed made two different inputs")
			}
			if c := makeInputs(w, 8, ops, tinyScale[w.name]); reflect.DeepEqual(a.script, c.script) && reflect.DeepEqual(a.data, c.data) {
				t.Fatal("two seeds made the same inputs")
			}
			_, o1 := play(t, w.name, 7, ops, nil)
			_, o2 := play(t, w.name, 7, ops, nil)
			q := float64(o1.queries.n())
			if o1.msgs != o2.msgs || o1.bytes != o2.bytes {
				t.Fatalf("msgs_per_query %g vs %g, wire_bytes_per_query %g vs %g across two in-process runs",
					float64(o1.msgs)/q, float64(o2.msgs)/q, float64(o1.bytes)/q, float64(o2.bytes)/q)
			}
		})
	}
}

func TestChurnScriptStaysValid(t *testing.T) {
	w := lookupWorkload("churn_update")
	in := makeInputs(w, 3, 10*len(churnRound), tinyScale[w.name])
	live := map[string]bool{}
	for _, id := range in.sharing {
		live[string(id)] = true
	}
	kinds := map[opKind]int{}
	for i, o := range in.script {
		kinds[o.kind]++
		switch o.kind {
		case opJoin:
			live[string(o.peer)] = true
		case opUpdate, opDepart:
			if !live[string(o.peer)] {
				t.Fatalf("op %d %v targets a peer that is not live", i, o)
			}
			if o.kind == opDepart {
				delete(live, string(o.peer))
			}
		}
	}
	if kinds[opQuery] != 10 || kinds[opJoin] == 0 || kinds[opUpdate] == 0 || kinds[opDepart] == 0 {
		t.Fatalf("operation mix %v", kinds)
	}
}

func TestTracedRunSelfCheck(t *testing.T) {
	for _, name := range []string{"fanout_small", "churn_update", "faulty_fanout"} {
		t.Run(name, func(t *testing.T) {
			ops := 2 * len(churnRound)
			_, base := play(t, name, 5, ops, nil)
			tr := newTracer()
			_, traced := play(t, name, 5, ops, tr)
			l := analyze(tr)
			if err := selfCheck(base, traced, tr, l); err != nil {
				t.Fatal(err)
			}
			if l.queries != base.queries.n() || l.sitesScanned == 0 || l.scanRows == 0 {
				t.Fatalf("traced %d queries over %d sites and %d rows; want %d queries", l.queries, l.sitesScanned, l.scanRows, base.queries.n())
			}
		})
	}
}

func TestJudge(t *testing.T) {
	w := lookupWorkload("fanout_small")
	in := makeInputs(w, 1, 1, tinyScale[w.name])
	sys, err := build(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	or := newOracle(in.syn.Schema)
	for _, id := range in.sharing {
		or.add(id, in.data[id])
	}
	text := in.syn.RQL(2, 2)
	want, err := or.expect(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.client.AskAnnotated(text)
	if err != nil {
		t.Fatal(err)
	}
	if v := judge(want, res); v.wrong || v.completeness != 1 || len(want.rows) == 0 {
		t.Fatalf("full answer judged %+v over %d expected rows", v, len(want.rows))
	}
	full := res.Rows.Rows
	res.Rows.Rows = append(full[:len(full):len(full)], full[0])
	if v := judge(want, res); !v.wrong {
		t.Fatal("duplicate row accepted")
	}
	// Dropping rows without annotating the loss is wrong; annotated, it
	// is a legal partial answer.
	res.Rows.Rows = full[1:]
	if v := judge(want, res); !v.wrong {
		t.Fatal("unannotated missing row accepted")
	}
	res.Completeness.Complete = false
	res.Completeness.Unanswered = append(res.Completeness.Unanswered, exec.Unanswered{PatternID: "Q1", Reason: "test"})
	if v := judge(want, res); v.wrong || v.completeness >= 1 {
		t.Fatalf("annotated partial answer judged %+v", v)
	}
}

func TestOracleDeparture(t *testing.T) {
	w := lookupWorkload("churn_update")
	in := makeInputs(w, 1, 1, tinyScale[w.name])
	or := newOracle(in.syn.Schema)
	for _, id := range in.sharing {
		or.add(id, in.data[id])
	}
	n := or.union.Len()
	text := in.syn.RQL(2, 2)
	want, err := or.expect(text)
	if err != nil {
		t.Fatal(err)
	}
	// A two-property chain base lists its middle resource's typing
	// twice; the peer still holds it once, and leaving takes it away.
	fresh := chainTriples(in.syn, 2, 2, churnChainBase, 3)
	or.add("J-1", fresh)
	if got, _ := or.expect(text); len(got.rows) != len(want.rows)+3 {
		t.Fatalf("%d rows after a join of 3 chains, want %d", len(got.rows), len(want.rows)+3)
	}
	or.depart("J-1")
	if or.union.Len() != n {
		t.Fatalf("union holds %d triples after a join and its departure, want %d", or.union.Len(), n)
	}
	// A triple another live peer holds survives a departure.
	shared := in.data[in.sharing[0]]
	or.add("J-2", shared)
	or.depart("J-2")
	if or.union.Len() != n {
		t.Fatalf("union holds %d triples after a duplicate peer left, want %d", or.union.Len(), n)
	}
	or.depart(in.sharing[0])
	or.add(in.sharing[0], in.data[in.sharing[0]])
	if again, _ := or.expect(text); !reflect.DeepEqual(again.rows, want.rows) {
		t.Fatal("oracle changed after a peer left and rejoined")
	}
}
