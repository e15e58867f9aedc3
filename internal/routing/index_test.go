package routing_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/routing"
)

// indexedPaperRouter is paperRouter over an indexed registry.
func indexedPaperRouter(t testing.TB) *routing.Router {
	t.Helper()
	reg := routing.NewIndexedRegistry(gen.PaperSchema())
	for peer, as := range gen.PaperActiveSchemas() {
		reg.Register(peer, as)
	}
	return routing.NewRouter(gen.PaperSchema(), reg)
}

// assertSameAnnotation fails unless the two annotations are deeply equal:
// same peers per pattern, same rewrites per (pattern, peer).
func assertSameAnnotation(t *testing.T, label string, indexed, brute *pattern.Annotated) {
	t.Helper()
	if !reflect.DeepEqual(indexed.Peers, brute.Peers) {
		t.Errorf("%s: peers diverge:\n  indexed: %v\n  brute:   %v", label, indexed.Peers, brute.Peers)
	}
	if !reflect.DeepEqual(indexed.Rewrites, brute.Rewrites) {
		t.Errorf("%s: rewrites diverge:\n  indexed: %v\n  brute:   %v", label, indexed.Rewrites, brute.Rewrites)
	}
}

// TestIndexedRouteMatchesFigure2 pins the indexed path to the paper's
// Figure 2, including the prop4 ⊑ prop1 subsumption hit for P4.
func TestIndexedRouteMatchesFigure2(t *testing.T) {
	r := indexedPaperRouter(t)
	ann, st := r.RouteWithStats(gen.PaperQuery())
	if !st.Indexed {
		t.Fatal("route did not use the index")
	}
	if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P1 P2 P4]" {
		t.Errorf("Q1 peers = %s, want [P1 P2 P4]", got)
	}
	if got := fmt.Sprint(ann.PeersFor("Q2")); got != "[P1 P3 P4]" {
		t.Errorf("Q2 peers = %s, want [P1 P3 P4]", got)
	}
	assertSameAnnotation(t, "figure2", ann, paperRouter(t).Route(gen.PaperQuery()))
}

// TestIndexedRouteDoesLessWork verifies the index's whole point: fewer
// subsumption comparisons than the brute-force triple loop on the same
// knowledge.
func TestIndexedRouteDoesLessWork(t *testing.T) {
	_, brute := paperRouter(t).RouteWithStats(gen.PaperQuery())
	_, indexed := indexedPaperRouter(t).RouteWithStats(gen.PaperQuery())
	if indexed.Comparisons >= brute.Comparisons {
		t.Errorf("indexed made %d comparisons, brute %d — index saved nothing",
			indexed.Comparisons, brute.Comparisons)
	}
}

// TestBruteForceAblationOnIndexedRegistry checks the Router.BruteForce
// flag bypasses the index and still agrees with it.
func TestBruteForceAblationOnIndexedRegistry(t *testing.T) {
	r := indexedPaperRouter(t)
	r.BruteForce = true
	ann, st := r.RouteWithStats(gen.PaperQuery())
	if st.Indexed {
		t.Fatal("BruteForce route still used the index")
	}
	r.BruteForce = false
	assertSameAnnotation(t, "ablation", r.Route(gen.PaperQuery()), ann)
}

// TestIndexedMatchesBruteOnRandomWorkloads sweeps randomized synthetic
// SONs and asserts indexed and brute-force routing produce identical
// annotations in both subsumption modes.
func TestIndexedMatchesBruteOnRandomWorkloads(t *testing.T) {
	for _, withSubs := range []bool{false, true} {
		for _, dist := range []gen.Distribution{gen.Vertical, gen.Horizontal, gen.Mixed} {
			syn := gen.NewSynthetic(8, withSubs)
			bases := syn.Bases(24, 4, dist)
			ases := gen.ActiveSchemas(syn.Schema, bases)

			breg := routing.NewRegistry()
			ireg := routing.NewIndexedRegistry(syn.Schema)
			for p, as := range ases {
				breg.Register(p, as)
				ireg.Register(p, as)
			}
			for _, mode := range []pattern.SubsumptionMode{pattern.FullSubsumption, pattern.ExactOnly} {
				brouter := routing.NewRouter(syn.Schema, breg)
				irouter := routing.NewRouter(syn.Schema, ireg)
				brouter.Mode, irouter.Mode = mode, mode
				for qi, q := range syn.RandomQueries(12, 3, 42) {
					label := fmt.Sprintf("subs=%v dist=%s mode=%v q%d", withSubs, dist, mode, qi)
					iann, ist := irouter.RouteWithStats(q)
					bann, _ := brouter.RouteWithStats(q)
					if !ist.Indexed {
						t.Fatalf("%s: indexed registry routed brute-force", label)
					}
					assertSameAnnotation(t, label, iann, bann)
				}
			}
		}
	}
}

// TestIndexedRegistryReplaceAndUnregister exercises incremental index
// maintenance: re-advertisement replaces postings, unregister removes
// them.
func TestIndexedRegistryReplaceAndUnregister(t *testing.T) {
	reg := routing.NewIndexedRegistry(gen.PaperSchema())
	as := gen.PaperActiveSchemas()
	r := routing.NewRouter(gen.PaperSchema(), reg)

	reg.Register("P1", as["P2"]) // only prop1
	if got := fmt.Sprint(r.Route(gen.PaperQuery()).PeersFor("Q2")); got != "[]" {
		t.Errorf("Q2 peers before re-advertisement = %s", got)
	}
	reg.Register("P1", as["P1"]) // prop1 + prop2
	if got := fmt.Sprint(r.Route(gen.PaperQuery()).PeersFor("Q2")); got != "[P1]" {
		t.Errorf("Q2 peers after re-advertisement = %s", got)
	}
	reg.Unregister("P1")
	ann := r.Route(gen.PaperQuery())
	if len(ann.AllPeers()) != 0 {
		t.Errorf("postings leaked after Unregister: %v", ann.AllPeers())
	}
}

// TestSnapshotViewImmutableUnderChurn holds a view across registrations
// and checks it never changes, while fresh snapshots see the churn.
func TestSnapshotViewImmutableUnderChurn(t *testing.T) {
	reg := routing.NewIndexedRegistry(gen.PaperSchema())
	as := gen.PaperActiveSchemas()
	reg.Register("P1", as["P1"])
	v1 := reg.Snapshot()
	if v1 != reg.Snapshot() {
		t.Error("snapshot of unchanged registry should be cached")
	}
	reg.Register("P4", as["P4"])
	if v1.Len() != 1 {
		t.Errorf("held view changed under churn: %d peers", v1.Len())
	}
	v2 := reg.Snapshot()
	if v2.Epoch <= v1.Epoch {
		t.Errorf("epoch did not advance: %d -> %d", v1.Epoch, v2.Epoch)
	}
	if v2.Len() != 2 {
		t.Errorf("fresh view misses churn: %d peers", v2.Len())
	}
}

// TestIndexedRegistryConcurrentChurn routes while peers register and
// unregister from many goroutines; run with -race. Every successful route
// must be internally consistent (indexed result equal to brute-force over
// the same snapshot epoch is checked by the equality tests; here we check
// crash/race freedom and monotone epochs).
func TestIndexedRegistryConcurrentChurn(t *testing.T) {
	reg := routing.NewIndexedRegistry(gen.PaperSchema())
	as := gen.PaperActiveSchemas()
	r := routing.NewRouter(gen.PaperSchema(), reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				peer := pattern.PeerID(fmt.Sprintf("P%d-%d", g, i))
				reg.Register(peer, as["P4"])
				ann := r.Route(gen.PaperQuery())
				if len(ann.PeersFor("Q1")) == 0 {
					// The registering goroutine itself guarantees at least
					// its own peer is annotated (prop4 ⊑ prop1).
					panic("route lost the registering goroutine's own peer")
				}
				reg.Unregister(peer)
			}
		}(g)
	}
	wg.Wait()
	if reg.Len() != 0 {
		t.Errorf("registry leaked %d peers", reg.Len())
	}
}

// TestTruncateOnlyScoresAnnotatedPeers pins the truncation fix: with many
// irrelevant peers registered, MaxPeersPerPattern must select among the
// annotated peers only and still produce Figure-2-consistent output.
func TestTruncateOnlyScoresAnnotatedPeers(t *testing.T) {
	for _, mk := range []func() *routing.Registry{
		routing.NewRegistry,
		func() *routing.Registry { return routing.NewIndexedRegistry(gen.PaperSchema()) },
	} {
		reg := mk()
		for peer, as := range gen.PaperActiveSchemas() {
			reg.Register(peer, as)
		}
		// Foreign-SON peers are registered but never annotated.
		foreign := pattern.NewActiveSchema("http://other-SON#")
		foreign.Patterns = append(foreign.Patterns, pattern.PathPattern{
			ID: "AS1", SubjectVar: "s", ObjectVar: "o",
			Property: gen.N1("prop1"), Domain: gen.N1("C1"), Range: gen.N1("C2"),
		})
		for i := 0; i < 10; i++ {
			reg.Register(pattern.PeerID(fmt.Sprintf("PX%d", i)), foreign)
		}
		r := routing.NewRouter(gen.PaperSchema(), reg)
		r.MaxPeersPerPattern = 2
		ann := r.Route(gen.PaperQuery())
		// P1 and P4 cover both patterns (coverage 1.0); P2/P3 cover one.
		if got := fmt.Sprint(ann.PeersFor("Q1")); got != "[P1 P4]" {
			t.Errorf("truncated Q1 peers = %s, want [P1 P4]", got)
		}
		if got := fmt.Sprint(ann.PeersFor("Q2")); got != "[P1 P4]" {
			t.Errorf("truncated Q2 peers = %s, want [P1 P4]", got)
		}
	}
}
