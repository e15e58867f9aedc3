package exec_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

// eventRun is one pass of the migration-storm scenario below.
type eventRun struct {
	// execEvents counts exec events by "peer component kind".
	execEvents map[string]int
	// dumps are the root's flight-recorder dump reasons.
	dumps []string
}

// runMigrationStorm wires the paper system with the operations plane on
// — every peer writes its own event log, so a log names the engine that
// emitted each of its events — and crashes P4 mid-stream in each of
// three back-to-back queries at root P1. Every query migrates P4's
// subtree away; the root's flight recorder sees the burst. traced adds a
// tracer at the root; nothing else differs between the two passes.
func runMigrationStorm(t *testing.T, traced bool) eventRun {
	t.Helper()
	schema := gen.PaperSchema()
	bases := gen.PaperBases(3)
	net := network.New()
	ids := []pattern.PeerID{"P1", "P2", "P3", "P4"}
	peers := map[pattern.PeerID]*peer.Peer{}
	logs := map[pattern.PeerID]*obs.EventLog{}
	for _, id := range ids {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id],
			Events: obs.NewEventLog(net.NowMS)}
		if id == "P1" {
			cfg.FlightRec = true
			cfg.MaxRetries, cfg.BatchSize = 1, 1
			if traced {
				cfg.Tracer = obs.NewTracer()
			}
		}
		p, err := peer.New(cfg, net)
		if err != nil {
			t.Fatalf("peer.New(%s): %v", id, err)
		}
		peers[id], logs[id] = p, cfg.Events
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	p1 := peers["P1"]
	for q := 0; q < 3; q++ {
		// Migration dropped P4 from P1's routing: re-learn it so the next
		// plan ships to P4 again, and crash it mid-stream again.
		p1.Learn(peers["P4"].Advertisement())
		net.SetInjector(killMidStream("P4", 1))
		pr, err := p1.PlanQuery(gen.PaperQuery())
		if err != nil {
			t.Fatalf("query %d: PlanQuery: %v", q, err)
		}
		if _, err := p1.Engine.Execute(pr.Optimized); err != nil {
			t.Fatalf("query %d: Execute: %v", q, err)
		}
	}
	run := eventRun{execEvents: map[string]int{}}
	for _, id := range ids {
		for _, ev := range logs[id].Events() {
			if ev.Component != "exec" {
				continue
			}
			if ev.Peer != string(id) {
				t.Errorf("traced=%v: %s's engine emitted exec/%s stamped with peer %q", traced, id, ev.Kind, ev.Peer)
			}
			run.execEvents[fmt.Sprintf("%s %s %s", ev.Peer, ev.Component, ev.Kind)]++
		}
	}
	for _, d := range p1.Recorder.Dumps() {
		run.dumps = append(run.dumps, d.Reason)
	}
	sort.Strings(run.dumps)
	return run
}

// Tracing is an observer of execution, not a source of facts: the exec
// events each engine emits — and so what a peer's flight recorder sees —
// are the same with and without a tracer.
func TestExecEventsIndependentOfTracing(t *testing.T) {
	traced := runMigrationStorm(t, true)
	untraced := runMigrationStorm(t, false)
	if len(traced.execEvents) == 0 {
		t.Fatal("scenario emitted no exec events")
	}
	if !reflect.DeepEqual(traced.execEvents, untraced.execEvents) {
		t.Errorf("exec events differ with tracing:\n traced:   %v\n untraced: %v", traced.execEvents, untraced.execEvents)
	}
	for _, k := range []string{"dispatch", "retry", "migrate", "ledger"} {
		if untraced.execEvents["P1 exec "+k] == 0 {
			t.Errorf("root emitted no exec/%s events: %v", k, untraced.execEvents)
		}
	}
	storm := false
	for _, r := range untraced.dumps {
		storm = storm || r == "migration-storm" || r == "shed-burst"
	}
	if !storm {
		t.Errorf("untraced root recorder dumps = %v, want a migration-storm", untraced.dumps)
	}
	if !reflect.DeepEqual(traced.dumps, untraced.dumps) {
		t.Errorf("root dumps differ with tracing: traced %v, untraced %v", traced.dumps, untraced.dumps)
	}
}
