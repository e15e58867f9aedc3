package exec_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqpeer/internal/admission"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

// TestOverloadSoak hammers an admission-controlled root with concurrent
// multi-tenant queries — the true-concurrency counterpart of the
// deterministic CLAIM-OVERLOAD harness, run under -race via `make
// overload`. Controllers run in explicit-Done mode (HoldMS = 0):
// occupancy is an inflight count released when the work finishes, not a
// lease clock, so a lost Done shows up as occupancy that never drains.
// The soak checks the failure modes admission must not introduce:
// wedged dispatches (per-round watchdog), goroutine leaks, occupancy
// that fails to drain back to zero, and lost work — every ask must
// resolve to a full answer, a completeness-annotated partial, or a
// typed transient OverloadError, never a bare failure.
func TestOverloadSoak(t *testing.T) {
	rounds, concurrent := 30, 8
	if testing.Short() {
		rounds = 6
	}
	peers, net := paperSystem(t, 2)
	// Servers admit at most two subplans at a time, priority-watermarked:
	// under eight concurrent fan-outs they reject constantly, exercising
	// the retry/migrate/shed ladder from every worker at once.
	for _, p := range peers {
		p.Engine.Admission = admission.NewController(admission.Config{
			MaxConcurrent: 2, Clock: net.NowMS,
		})
	}
	rootCtl := admission.NewController(admission.Config{
		RatePerSec: 1000, Burst: 64, MaxConcurrent: 4, Clock: net.NowMS,
	})
	p0, err := peer.New(peer.Config{
		ID: "P0", Kind: peer.ClientPeer, Schema: gen.PaperSchema(),
		Options:    exec.Options{DeadlineMS: 300, MaxRetries: 2, AllowPartial: true},
		Quarantine: true,
		Admission:  rootCtl,
	}, net)
	if err != nil {
		t.Fatalf("peer.New(P0): %v", err)
	}
	for _, p := range peers {
		p0.Learn(p.Advertisement())
	}

	// Worker i's tenant: two gold, two silver, four bronze — enough Low
	// traffic that the root's 0.5 watermark (2 of 4 slots) bites.
	tenantOf := func(i int) admission.QoS {
		switch {
		case i < 2:
			return admission.QoS{Tenant: "gold", Priority: admission.High}
		case i < 4:
			return admission.QoS{Tenant: "silver", Priority: admission.Normal}
		default:
			return admission.QoS{Tenant: "bronze", Priority: admission.Low}
		}
	}

	baseline := runtime.NumGoroutine()
	var full, partial, rejected, bare atomic.Int64
	for round := 0; round < rounds; round++ {
		p0.Health.Tick()
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := p0.AskAnnotatedAs(gen.PaperRQL, tenantOf(i))
				switch {
				case err == nil && res.Completeness.Complete:
					full.Add(1)
				case err == nil:
					partial.Add(1)
					for _, u := range res.Completeness.Unanswered {
						if u.Reason == "" {
							t.Errorf("round %d: hole without a reason: %+v", round, u)
						}
					}
				default:
					var oe *admission.OverloadError
					if !errors.As(err, &oe) {
						bare.Add(1)
						t.Errorf("round %d: bare failure (not an OverloadError): %v", round, err)
						return
					}
					if !network.Transient(err) {
						t.Errorf("round %d: OverloadError not classified transient: %v", round, err)
					}
					if oe.RetryAfterMS < 0 {
						t.Errorf("round %d: negative retry-after hint: %v", round, err)
					}
					rejected.Add(1)
				}
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<16)
			t.Fatalf("round %d: watchdog expired — admission wedged the dispatch\n%s",
				round, buf[:runtime.Stack(buf, true)])
		}
	}

	t.Logf("soak: full=%d partial=%d rejected=%d bare=%d shed=%d migrations=%d hints=%d serverRejects=%d",
		full.Load(), partial.Load(), rejected.Load(), bare.Load(),
		p0.Engine.Metrics().Shed, p0.Engine.Metrics().Migrations,
		p0.Engine.Metrics().RetryAfterHonored, serverRejects(peers))
	if got := full.Load() + partial.Load() + rejected.Load(); got != int64(rounds*concurrent) {
		t.Errorf("accounted %d of %d asks; the rest vanished", got, rounds*concurrent)
	}
	if full.Load() == 0 {
		t.Error("nothing completed: overload geometry starved the soak entirely")
	}
	if rejected.Load() == 0 && p0.Engine.Metrics().Shed == 0 && serverRejects(peers) == 0 {
		t.Error("no admission machinery fired: the soak is vacuous")
	}

	// Explicit-Done mode: when the dust settles every inflight count must
	// have been released, or some path lost its Done.
	if occ := rootCtl.Occupancy(); occ != 0 {
		t.Errorf("root occupancy did not drain: %d leases still held", occ)
	}
	for id, p := range peers {
		if occ := p.Engine.Admission.Occupancy(); occ != 0 {
			t.Errorf("%s occupancy did not drain: %d still held", id, occ)
		}
	}
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

func serverRejects(peers map[pattern.PeerID]*peer.Peer) int {
	n := 0
	for _, p := range peers {
		n += p.Engine.Metrics().OverloadRejected
	}
	return n
}
