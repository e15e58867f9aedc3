package routing_test

import (
	"fmt"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/routing"
)

// Quarantine must exclude a peer from routing views (both strategies)
// without forgetting its advertisement, and Reinstate must restore it —
// each bumping the epoch so cached snapshots refresh.
func TestQuarantineExcludesFromRouting(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			var reg *routing.Registry
			if indexed {
				reg = routing.NewIndexedRegistry(gen.PaperSchema())
			} else {
				reg = routing.NewRegistry()
			}
			for peer, as := range gen.PaperActiveSchemas() {
				reg.Register(peer, as)
			}
			r := routing.NewRouter(gen.PaperSchema(), reg)

			before := reg.Epoch()
			if !reg.Quarantine("P4") {
				t.Fatal("Quarantine(P4) should report a change")
			}
			if reg.Epoch() == before {
				t.Fatal("quarantine must bump the epoch")
			}
			ann := r.Route(gen.PaperQuery())
			if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P1 P2]" {
				t.Errorf("Q1 peers with P4 quarantined = %s, want [P1 P2]", got)
			}
			if got := fmt.Sprint(ann.PeersFor("Q2")); got != "[P1 P3]" {
				t.Errorf("Q2 peers with P4 quarantined = %s, want [P1 P3]", got)
			}
			if _, ok := reg.Get("P4"); !ok {
				t.Error("quarantine must not forget the advertisement")
			}
			if !reg.IsQuarantined("P4") || fmt.Sprint(reg.QuarantinedPeers()) != "[P4]" {
				t.Error("P4 should be listed as quarantined")
			}

			if !reg.Reinstate("P4") {
				t.Fatal("Reinstate(P4) should report a change")
			}
			ann = r.Route(gen.PaperQuery())
			if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P1 P2 P4]" {
				t.Errorf("Q1 peers after reinstate = %s, want [P1 P2 P4]", got)
			}
		})
	}
}

func TestQuarantineEdgeCases(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	if reg.Quarantine("P99") {
		t.Error("quarantining an unknown peer should be a no-op")
	}
	if !reg.Quarantine("P2") || reg.Quarantine("P2") {
		t.Error("second quarantine of the same peer should report no change")
	}
	// Register does not lift an existing quarantine.
	reg.Register("P2", gen.PaperActiveSchemas()["P2"])
	if !reg.IsQuarantined("P2") {
		t.Error("re-registering must not lift the quarantine")
	}
	// Unregister does.
	reg.Unregister("P2")
	if reg.IsQuarantined("P2") {
		t.Error("unregister must clear the quarantine")
	}
	if reg.Reinstate("P2") {
		t.Error("reinstating a non-quarantined peer should report no change")
	}
}

// The breaker: a failure quarantines, Tick-driven cool-down lifts into
// probation, probation failure re-quarantines with doubled cool-down,
// probation success closes the breaker.
func TestHealthCircuitBreaker(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	h := routing.NewHealth(reg)

	h.ReportFailure("P3")
	if !reg.IsQuarantined("P3") {
		t.Fatal("a failure must quarantine")
	}
	if fmt.Sprint(h.Quarantined()) != "[P3]" {
		t.Fatalf("Quarantined() = %v", h.Quarantined())
	}
	h.ReportFailure("P3") // already open: no second quarantine

	if lifted := h.Tick(); len(lifted) != 0 {
		t.Fatalf("cool-down of 2 must survive one tick, lifted %v", lifted)
	}
	if lifted := fmt.Sprint(h.Tick()); lifted != "[P3]" {
		t.Fatalf("second tick should lift P3 into probation, got %v", lifted)
	}
	if reg.IsQuarantined("P3") {
		t.Fatal("probation peer must be routable")
	}

	// Probation failure: immediate re-quarantine, doubled cool-down (4).
	h.ReportFailure("P3")
	if !reg.IsQuarantined("P3") {
		t.Fatal("probation failure must re-quarantine immediately")
	}
	for i := 0; i < 3; i++ {
		if lifted := h.Tick(); len(lifted) != 0 {
			t.Fatalf("doubled cool-down lifted early at tick %d: %v", i, lifted)
		}
	}
	if lifted := fmt.Sprint(h.Tick()); lifted != "[P3]" {
		t.Fatalf("doubled cool-down should lift on 4th tick, got %v", lifted)
	}

	// Probation success closes the breaker and resets the cool-down.
	h.ReportSuccess("P3")
	if reg.IsQuarantined("P3") {
		t.Fatal("probation success must close the breaker")
	}
	st := h.Stats()
	if st.Quarantines != 2 || st.Reinstates != 2 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// QuarantineNow opens the breaker without a failure; repeated probation
// failures then double the cool-down up to its cap of 16 ticks, and a
// probation success resets it to 2.
func TestHealthQuarantineNowAndSuccessReset(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	h := routing.NewHealth(reg)
	// ticksToLift ticks until the peer leaves quarantine.
	ticksToLift := func(peer string) int {
		for n := 1; n <= 64; n++ {
			if len(h.Tick()) > 0 {
				return n
			}
		}
		t.Fatalf("%s never lifted", peer)
		return 0
	}

	// Forced quarantine needs no failure; a stale success while the
	// breaker is open does not close it.
	h.QuarantineNow("P2")
	if !reg.IsQuarantined("P2") {
		t.Fatal("QuarantineNow must quarantine immediately")
	}
	h.ReportSuccess("P2")
	if !reg.IsQuarantined("P2") {
		t.Fatal("a success while quarantined must not close the breaker")
	}
	var got []int
	got = append(got, ticksToLift("P2"))
	for i := 0; i < 4; i++ {
		h.ReportFailure("P2") // on probation
		got = append(got, ticksToLift("P2"))
	}
	if fmt.Sprint(got) != "[2 4 8 16 16]" {
		t.Fatalf("cool-downs = %v, want [2 4 8 16 16]", got)
	}
	h.ReportSuccess("P2") // probation success: breaker closed, cool-down reset
	h.ReportFailure("P2")
	if n := ticksToLift("P2"); n != 2 {
		t.Fatalf("cool-down after a recovery = %d, want 2", n)
	}
}

// A membership confirm-dead pins the breaker open: no number of ticks
// may half-open probe a condemned peer, and only Revive (the rejoin at
// a higher incarnation, reported by the failure detector) reinstates it.
func TestHealthCondemnPinsUntilRevive(t *testing.T) {
	reg := routing.NewRegistry()
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	h := routing.NewHealth(reg)

	h.Condemn("P2")
	if !reg.IsQuarantined("P2") || !h.Condemned("P2") {
		t.Fatal("condemn must quarantine immediately")
	}
	// Far past any cool-down (the initial is 2 ticks): still pinned, never
	// lifted into probation.
	for i := 0; i < 20; i++ {
		if lifted := h.Tick(); len(lifted) != 0 {
			t.Fatalf("tick %d half-open probed a condemned peer: %v", i, lifted)
		}
	}
	if !reg.IsQuarantined("P2") {
		t.Fatal("condemned peer lifted without a rejoin")
	}
	// Outcome reports from stale in-flight dispatches cannot unpin it.
	h.ReportSuccess("P2")
	h.ReportFailure("P2")
	if !reg.IsQuarantined("P2") || !h.Condemned("P2") {
		t.Fatal("stale outcome reports must not unpin a condemned peer")
	}

	// The rejoin path: Revive closes the breaker and restores routing.
	h.Revive("P2")
	if reg.IsQuarantined("P2") || h.Condemned("P2") {
		t.Fatal("revive must reinstate the peer")
	}
	if lifted := h.Tick(); len(lifted) != 0 {
		t.Fatalf("revived peer should not also lift from quarantine: %v", lifted)
	}
	st := h.Stats()
	if st.Condemnations != 1 || st.Revivals != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Revive of a merely-quarantined (not condemned) peer is a no-op: the
	// normal probation cycle owns transient quarantines.
	h.QuarantineNow("P3")
	h.Revive("P3")
	if !reg.IsQuarantined("P3") {
		t.Fatal("revive must not bypass a transient quarantine's probation cycle")
	}
	// Condemning an already-quarantined peer pins the existing quarantine.
	h.Condemn("P3")
	for i := 0; i < 10; i++ {
		if lifted := h.Tick(); len(lifted) != 0 {
			t.Fatalf("condemned-while-quarantined peer lifted: %v", lifted)
		}
	}
}
