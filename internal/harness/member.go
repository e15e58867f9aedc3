package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/membership"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/routing"
)

func init() {
	register("member", "CLAIM-MEMBER: decentralized membership — failure detection, anti-entropy convergence, partition healing", claimMember)
}

// memberRun is one seeded pass of the full scenario.
type memberRun struct {
	joinRounds     int
	crashes        int
	maxDetect      int
	undetected     int
	churnQueries   int
	churnCompleted int
	quiesceRounds  int
	partQueries    int
	partCompleted  int
	partPartial    int
	partAnnotated  int
	wrongRows      int
	bothDetected   bool
	healRounds     int
	viewsEqual     bool
	answerRestored bool
	digest         uint64
}

// Documented logical-clock bounds (DESIGN.md §14): with n peers each
// ticking once per round, a crash is suspected within one probe-ring
// pass and confirmed two ticks later; gossip and per-round
// anti-entropy propagate the verdict, and in practice the parallel
// probing keeps detection far below the single-prober worst case.
const (
	memberPeers       = 10 // providers (5 per partition side)
	memberJoinBound   = 12
	memberDetectBound = 10
	memberHealBound   = 20
)

// claimMember runs the decentralized-membership claim: peers build and
// maintain routing views with no shared oracle — bootstrap converges in
// bounded rounds, scripted crashes under 10% message faults are
// confirmed dead within the documented bound, a partition degrades
// queries to annotated partial answers with zero wrong rows, and after
// the heal the anti-entropy pass provably reconverges every view to
// equality with the ground-truth registry. Same-seed reruns are
// byte-identical and the run leaks no goroutines.
func claimMember() *Report {
	r := &Report{ID: "member", Title: "CLAIM-MEMBER: decentralized membership — failure detection, anti-entropy convergence, partition healing", Pass: true}

	grBefore := runtime.NumGoroutine()
	run := runMemberScenario(memberSeed)
	rerun := runMemberScenario(memberSeed)
	deterministic := run.digest == rerun.digest

	r.linef("  bootstrap: %d peers converged to oracle views in %d rounds (bound %d)",
		memberPeers, run.joinRounds, memberJoinBound)
	r.linef("  churn+10%% faults: %d crashes, max detect latency %d rounds (bound %d), %d/%d queries completed",
		run.crashes, run.maxDetect, memberDetectBound, run.churnCompleted, run.churnQueries)
	r.linef("  quiescence: views re-equal to oracle %d rounds after churn", run.quiesceRounds)
	r.linef("  partition: %d/%d queries completed (%d partial, %d wrong rows), both sides detected=%v",
		run.partCompleted, run.partQueries, run.partPartial, run.wrongRows, run.bothDetected)
	r.linef("  heal: reconverged in %d rounds (bound %d), views==oracle=%v, answer restored=%v",
		run.healRounds, memberHealBound, run.viewsEqual, run.answerRestored)
	r.linef("  digest=%016x rerun=%016x", run.digest, rerun.digest)

	r.check("bootstrap converges to oracle-equal views within the documented bound",
		run.joinRounds > 0 && run.joinRounds <= memberJoinBound)
	r.check("every scripted crash confirmed dead within the documented bound",
		run.crashes > 0 && run.undetected == 0 && run.maxDetect <= memberDetectBound)
	r.check("≥95% of queries complete during churn at 10% faults",
		float64(run.churnCompleted) >= 0.95*float64(run.churnQueries))
	r.check("≥95% of mid-partition queries complete", float64(run.partCompleted) >= 0.95*float64(run.partQueries))
	r.check("partition answers are completeness-annotated partial answers",
		run.partPartial > 0 && run.partAnnotated == run.partPartial)
	r.check("zero wrong rows during the partition", run.wrongRows == 0)
	r.check("partition detected on both sides (suspicion timeouts, no shared state)", run.bothDetected)
	r.check("post-heal anti-entropy reconverges all views within the documented bound",
		run.healRounds > 0 && run.healRounds <= memberHealBound)
	r.check("after quiescence every peer's routing view equals the oracle registry", run.viewsEqual)
	r.check("post-heal answers recover the fault-free row set", run.answerRestored)
	r.check("same-seed reruns byte-identical", deterministic)

	// The detectors are goroutine-free by construction (Tick-driven); the
	// soak must not leak engine or channel goroutines either.
	leaked := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= grBefore+2 {
			break
		}
		runtime.Gosched()
		if i == 99 {
			leaked = true
		}
	}
	r.check("no goroutine leak across the soak", !leaked)
	return r
}

// memberSystem is the scenario fixture: a hardened client root P0 and
// ten providers — group A (VA*) holding prop1, group B (VB*) holding
// prop2 — every peer running its own detector, bootstrapped through P0
// only. The oracle registry is the ablation twin: the same
// advertisements registered directly, no network.
type memberSystem struct {
	net       *network.Network
	root      *peer.Peer
	peers     map[pattern.PeerID]*peer.Peer
	providers []pattern.PeerID // sorted
	sideA     []pattern.PeerID
	sideB     []pattern.PeerID
	oracle    *routing.Registry
}

func newMemberSystem(seed int64) *memberSystem {
	schema := gen.PaperSchema()
	net := network.New()
	s := &memberSystem{net: net, peers: map[pattern.PeerID]*peer.Peer{}}
	mopts := func() *membership.Options {
		return &membership.Options{Seed: seed}
	}
	root, err := peer.New(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: schema,
		Options:    exec.Options{Parallelism: 1, DeadlineMS: 200, MaxRetries: 3, AllowPartial: true},
		Quarantine: true, Membership: mopts()}, net)
	if err != nil {
		panic(err)
	}
	s.root = root
	s.peers["P0"] = root
	s.oracle = routing.NewIndexedRegistry(schema)
	for i := 0; i < memberPeers; i++ {
		var id pattern.PeerID
		prop := "prop1"
		if i < memberPeers/2 {
			id = pattern.PeerID(fmt.Sprintf("VA%d", i))
			s.sideA = append(s.sideA, id)
		} else {
			id = pattern.PeerID(fmt.Sprintf("VB%d", i-memberPeers/2))
			s.sideB = append(s.sideB, id)
			prop = "prop2"
		}
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema,
			Base: roleBase(string(id), 2, prop), Options: exec.Options{Parallelism: 1, DeadlineMS: 200},
			Membership: mopts()}, net)
		if err != nil {
			panic(err)
		}
		s.peers[id] = p
		s.providers = append(s.providers, id)
		s.oracle.Register(id, p.Active)
	}
	sort.Slice(s.providers, func(i, j int) bool { return s.providers[i] < s.providers[j] })
	// Bootstrap: every provider knows only the contact P0; views grow
	// through the membership plane alone (no Learn, no PushAdvertisement).
	for _, id := range s.providers {
		_ = s.peers[id].Membership.Join("P0")
	}
	return s
}

// tick drives one protocol round on every live peer (sorted order, for
// deterministic RNG and injector draws) plus the root's breaker clock.
func (s *memberSystem) tick() {
	ids := append([]pattern.PeerID{"P0"}, s.providers...)
	for _, id := range ids {
		if !s.net.IsDown(id) {
			s.peers[id].Membership.Tick()
		}
	}
	s.root.Health.Tick()
}

// viewFingerprint renders a registry's verdict on every provider:
// present/quarantined plus the advertised active-schema bytes. Two equal
// fingerprints mean equal routing views.
func viewFingerprint(reg *routing.Registry, providers []pattern.PeerID) string {
	out := ""
	for _, id := range providers {
		as, ok := reg.Get(id)
		switch {
		case !ok:
			out += string(id) + ":missing;"
		case reg.IsQuarantined(id):
			out += string(id) + ":quarantined;"
		default:
			blob, err := json.Marshal(as)
			if err != nil {
				out += string(id) + ":unmarshalable;"
				continue
			}
			out += string(id) + ":" + string(blob) + ";"
		}
	}
	return out
}

// viewsEqualOracle reports whether every live peer's registry (root
// included) matches the oracle on the provider set.
func (s *memberSystem) viewsEqualOracle() bool {
	want := viewFingerprint(s.oracle, s.providers)
	ids := append([]pattern.PeerID{"P0"}, s.providers...)
	for _, id := range ids {
		if s.net.IsDown(id) {
			continue
		}
		if viewFingerprint(s.peers[id].Registry, s.providers) != want {
			return false
		}
	}
	return true
}

// runMemberScenario executes the four-phase scenario for one seed.
func runMemberScenario(seed int64) memberRun {
	s := newMemberSystem(seed)
	h := fnv.New64a()
	var out memberRun

	// Phase 1 — bootstrap convergence from contact-only knowledge.
	for round := 1; round <= memberJoinBound; round++ {
		s.tick()
		if s.viewsEqualOracle() {
			out.joinRounds = round
			break
		}
	}
	fmt.Fprintf(h, "join:%d\n", out.joinRounds)
	baselineRes, err := s.root.Ask(gen.PaperRQL)
	if err != nil {
		panic(fmt.Sprintf("member baseline query: %v", err))
	}
	baseline := baselineRes.Sorted()
	baselineSet := map[string]bool{}
	for _, row := range baseline {
		baselineSet[row] = true
	}
	fmt.Fprintf(h, "baseline:%v\n", baseline)

	// Phase 2 — seeded churn under 10% message faults. Crashes last
	// longer than the detection bound so every one is confirmable; a
	// restarting peer calls Rejoin (incarnation bump), nothing else — no
	// scripted re-advertisement.
	const churnRounds = 30
	inj := faults.NewInjector(seed, faults.Rates{
		Drop: 1, Duplicate: 1, DelaySpike: 1, SpikeMS: 300,
	}.Scaled(0.10))
	s.net.SetInjector(inj)
	sched := faults.NewSchedule(seed, "P0", s.providers, churnRounds, faults.ScheduleRates{
		Crash: 0.05, CrashLen: memberDetectBound + 2,
	})
	crashRound := map[pattern.PeerID]int{}
	detected := map[pattern.PeerID]bool{}
	for round := 0; round < churnRounds; round++ {
		eff := sched.Apply(round, s.net, inj)
		for _, id := range eff.Crashed {
			out.crashes++
			crashRound[id] = round
			detected[id] = false
		}
		for _, id := range eff.Restarted {
			s.peers[id].Membership.Rejoin()
			delete(crashRound, id)
		}
		s.tick()
		// Detection check: the root's verdict on every still-down victim.
		for _, id := range s.providers {
			start, down := crashRound[id]
			if !down || detected[id] {
				continue
			}
			if st, _ := s.root.Membership.StatusOf(id); st == membership.StatusDead {
				detected[id] = true
				if lat := round - start + 1; lat > out.maxDetect {
					out.maxDetect = lat
				}
			}
		}
		out.churnQueries++
		res, err := s.root.AskAnnotated(gen.PaperRQL)
		switch {
		case err != nil:
			fmt.Fprintf(h, "churn %d:error\n", round)
		case res.Completeness.Complete:
			out.churnCompleted++
			fmt.Fprintf(h, "churn %d:full:%v\n", round, res.Rows.Sorted())
		default:
			out.churnCompleted++
			fmt.Fprintf(h, "churn %d:partial:%v\n", round, res.Rows.Sorted())
		}
	}
	for _, id := range s.providers {
		ok, tracked := detected[id]
		if _, stillDown := crashRound[id]; tracked && !ok && stillDown {
			out.undetected++
			fmt.Fprintf(h, "undetected:%s\n", id)
		}
	}
	// Quiesce: lift the injector, restart any still-down peer, and let
	// anti-entropy re-equalize every view with the oracle.
	s.net.SetInjector(nil)
	for _, id := range s.providers {
		if s.net.IsDown(id) {
			s.net.Recover(id)
			s.peers[id].Membership.Rejoin()
		}
	}
	for round := 1; round <= memberHealBound; round++ {
		s.tick()
		if s.viewsEqualOracle() {
			out.quiesceRounds = round
			break
		}
	}
	fmt.Fprintf(h, "quiesce:%d\n", out.quiesceRounds)

	// Phase 3 — a held partition: group B (every prop2 provider) is cut
	// from the root side. Queries keep flowing and must degrade to
	// completeness-annotated partial answers with zero wrong rows, while
	// suspicion timeouts fire on BOTH sides of the cut.
	rootSide := append([]pattern.PeerID{"P0"}, s.sideA...)
	for _, a := range rootSide {
		for _, b := range s.sideB {
			s.net.Partition(a, b)
		}
	}
	const partRounds = 12
	for round := 0; round < partRounds; round++ {
		s.tick()
		out.partQueries++
		res, err := s.root.AskAnnotated(gen.PaperRQL)
		switch {
		case err != nil:
			fmt.Fprintf(h, "part %d:error\n", round)
		case res.Completeness.Complete:
			out.partCompleted++
			fmt.Fprintf(h, "part %d:full:%v\n", round, res.Rows.Sorted())
		default:
			out.partCompleted++
			out.partPartial++
			if len(res.Completeness.Unanswered) > 0 {
				out.partAnnotated++
			}
			for _, row := range res.Rows.Sorted() {
				if !baselineSet[row] {
					out.wrongRows++
				}
			}
			fmt.Fprintf(h, "part %d:partial:%v\n", round, res.Rows.Sorted())
		}
	}
	aSeesB, _ := s.root.Membership.StatusOf(s.sideB[0])
	bSeesRoot, _ := s.peers[s.sideB[0]].Membership.StatusOf("P0")
	bSeesA, _ := s.peers[s.sideB[0]].Membership.StatusOf(s.sideA[0])
	out.bothDetected = aSeesB == membership.StatusDead &&
		bSeesRoot == membership.StatusDead && bSeesA == membership.StatusDead
	fmt.Fprintf(h, "part detected:%v\n", out.bothDetected)

	// Phase 4 — heal: no scripted rejoin anywhere. Dead-retry probes
	// rediscover the far side (the probe carries "you are dead at
	// incarnation i", the live target refutes at i+1) and anti-entropy
	// reconverges every view within the documented bound.
	for _, a := range rootSide {
		for _, b := range s.sideB {
			s.net.Heal(a, b)
		}
	}
	for round := 1; round <= memberHealBound; round++ {
		s.tick()
		if s.viewsEqualOracle() {
			out.healRounds = round
			break
		}
	}
	out.viewsEqual = s.viewsEqualOracle()
	restoredRes, err := s.root.Ask(gen.PaperRQL)
	if err == nil {
		restored := restoredRes.Sorted()
		out.answerRestored = len(restored) == len(baseline)
		for i := range restored {
			if out.answerRestored && restored[i] != baseline[i] {
				out.answerRestored = false
			}
		}
	}
	fmt.Fprintf(h, "heal:%d views:%v restored:%v\n", out.healRounds, out.viewsEqual, out.answerRestored)

	out.digest = h.Sum64()
	return out
}
