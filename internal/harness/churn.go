package harness

import (
	"fmt"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/membership"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
)

func init() {
	register("churn", "peer churn: join/leave/fail under continuous querying (§1/§2.5)", claimChurn)
}

// churnDetectBound is the documented logical-clock bound (DESIGN.md §14)
// within which the failure detector must confirm a churned-out peer
// dead: with every live peer probing once per round and a two-tick
// suspicion window, suspicion plus expiry plus gossip spread stays well
// under 10 rounds for this 9-node topology. Outages shorter than the bound may recover
// before confirmation — those are exempt, the detector is allowed (not
// required) to catch them.
const churnDetectBound = 10

// claimChurn stresses the paper's core premise — "each peer base can join
// and leave the network at will" — by failing and recovering redundant
// providers between queries. It runs the same scripted churn timeline
// twice: the original scripted mode (recovering peers re-announce
// themselves; the ablation baseline) and a detector mode where nobody
// announces anything — liveness and advertisements flow through the
// membership plane alone, and the detector's suspect→confirm timeline is
// asserted against the script (every sufficiently long outage confirmed
// within churnDetectBound rounds, never a false confirmation of the
// always-up anchors).
func claimChurn() *Report {
	r := &Report{ID: "churn", Title: "peer churn: join/leave/fail under continuous querying (§1/§2.5)", Pass: true}
	scriptedChurnPass(r)
	detectorChurnPass(r)
	return r
}

// scriptedChurnPass is the original oracle-fed churn loop: full mutual
// Learn up front, explicit PushAdvertisement on recovery.
func scriptedChurnPass(r *Report) {
	rng := gen.NewRNG(churnSeed)
	schema := gen.PaperSchema()
	net := network.New()

	// Anchors A1 (prop1) and A2 (prop2) never fail, so the query is
	// always answerable; V* peers are churned.
	mk := func(id pattern.PeerID, base *rdf.Base) *peer.Peer {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: base}, net)
		if err != nil {
			panic(err)
		}
		return p
	}
	asker := mk("P0", rdf.NewBase())
	peers := map[pattern.PeerID]*peer.Peer{"P0": asker}
	peers["A1"] = mk("A1", roleBase("A1", 2, "prop1"))
	peers["A2"] = mk("A2", roleBase("A2", 2, "prop2"))
	var volatile []pattern.PeerID
	for i := 0; i < 6; i++ {
		id := pattern.PeerID(fmt.Sprintf("V%d", i))
		prop := "prop1"
		if i%2 == 1 {
			prop = "prop2"
		}
		peers[id] = mk(id, roleBase(string(id), 2, prop))
		volatile = append(volatile, id)
	}
	for _, p := range peers {
		for _, q := range peers {
			if p != q {
				p.Learn(q.Advertisement())
			}
		}
	}

	const rounds = 40
	down := map[pattern.PeerID]bool{}
	successes, replans, minRows, maxRows := 0, 0, 1<<30, 0
	for round := 0; round < rounds; round++ {
		// Churn step: fail or recover one volatile peer.
		v := volatile[rng.Intn(len(volatile))]
		if down[v] {
			net.Recover(v)
			delete(down, v)
			// A recovering peer re-announces itself (re-join).
			if err := peers[v].PushAdvertisement("P0"); err == nil {
				// also restore the asker's statistics knowledge
				asker.Learn(peers[v].Advertisement())
			}
		} else if rng.Intn(2) == 0 {
			net.Fail(v)
			down[v] = true
		}

		mb := asker.Engine.Metrics()
		before := mb.Replans + mb.Migrations
		rows, err := asker.Ask(gen.PaperRQL)
		if err != nil {
			r.linef("  round %d: query failed: %v", round, err)
			continue
		}
		successes++
		ma := asker.Engine.Metrics()
		replans += ma.Replans + ma.Migrations - before
		if rows.Len() < minRows {
			minRows = rows.Len()
		}
		if rows.Len() > maxRows {
			maxRows = rows.Len()
		}
	}
	r.linef("  scripted: rounds=%d successes=%d adaptations=%d answer-size range=[%d..%d]",
		rounds, successes, replans, minRows, maxRows)
	r.check("every query under churn succeeds (anchors guarantee answerability)", successes == rounds)
	r.check("run-time adaptation was exercised", replans > 0)
	r.check("answers shrink and grow with the live provider set", minRows < maxRows)
	// Anchor floor: with only A1×A2 alive, 2 prop1 pairs join 2 prop2
	// pairs on shared keys → at least 2 rows always.
	r.check("answers never drop below the anchor contribution", minRows >= 2)
}

// detectorChurnPass replays the identical churn timeline (same seed,
// same fail/recover state machine) against membership-wired peers: no
// mutual Learn, no PushAdvertisement — views bootstrap and heal through
// gossip and anti-entropy. It asserts the detector's suspect→confirm
// timeline against the script.
func detectorChurnPass(r *Report) {
	rng := gen.NewRNG(churnSeed)
	schema := gen.PaperSchema()
	net := network.New()
	mopts := func() *membership.Options {
		return &membership.Options{Seed: churnSeed}
	}
	mk := func(id pattern.PeerID, base *rdf.Base, quarantine bool) *peer.Peer {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema,
			Base: base, Options: exec.Options{DeadlineMS: 200, MaxRetries: 3, AllowPartial: quarantine},
			Quarantine: quarantine, Membership: mopts()}, net)
		if err != nil {
			panic(err)
		}
		return p
	}
	asker := mk("P0", rdf.NewBase(), true)
	peers := map[pattern.PeerID]*peer.Peer{"P0": asker}
	ids := []pattern.PeerID{"P0", "A1", "A2"}
	peers["A1"] = mk("A1", roleBase("A1", 2, "prop1"), false)
	peers["A2"] = mk("A2", roleBase("A2", 2, "prop2"), false)
	var volatile []pattern.PeerID
	for i := 0; i < 6; i++ {
		id := pattern.PeerID(fmt.Sprintf("V%d", i))
		prop := "prop1"
		if i%2 == 1 {
			prop = "prop2"
		}
		peers[id] = mk(id, roleBase(string(id), 2, prop), false)
		volatile = append(volatile, id)
		ids = append(ids, id)
	}
	for _, id := range ids[1:] {
		if err := peers[id].Membership.Join("P0"); err != nil {
			panic(err)
		}
	}
	tick := func() {
		for _, id := range ids {
			if !net.IsDown(id) {
				peers[id].Membership.Tick()
			}
		}
		asker.Health.Tick()
	}
	for i := 0; i < 12; i++ {
		tick()
	}
	known := 0
	for _, id := range ids[1:] {
		if _, ok := asker.Registry.Get(id); ok {
			known++
		}
	}
	r.check("detector mode: bootstrap converged with no scripted advertisement",
		known == len(ids)-1)

	const rounds = 40
	down := map[pattern.PeerID]bool{}
	failRound := map[pattern.PeerID]int{}  // open outage onset
	confirmed := map[pattern.PeerID]bool{} // asker confirmed this outage
	successes, detections, lateOrMissed, maxLatency := 0, 0, 0, 0
	// closeEpisode scores one finished outage of length n rounds: long
	// outages must have been confirmed; short ones are exempt.
	closeEpisode := func(v pattern.PeerID, n int) {
		if !confirmed[v] && n > churnDetectBound {
			lateOrMissed++
			r.linef("  detector: outage of %s (%d rounds) never confirmed", v, n)
		}
	}
	for round := 0; round < rounds; round++ {
		// The identical churn state machine (same rng draw sequence) as the
		// scripted pass — the timeline being asserted against.
		v := volatile[rng.Intn(len(volatile))]
		if down[v] {
			net.Recover(v)
			delete(down, v)
			closeEpisode(v, round-failRound[v])
			delete(failRound, v)
			delete(confirmed, v)
			// The only thing a restarting peer does is bump its incarnation;
			// re-advertisement is the anti-entropy layer's job.
			peers[v].Membership.Rejoin()
		} else if rng.Intn(2) == 0 {
			net.Fail(v)
			down[v] = true
			failRound[v] = round
		}

		tick()
		for u := range down {
			if confirmed[u] {
				continue
			}
			if st, _ := asker.Membership.StatusOf(u); st == membership.StatusDead {
				confirmed[u] = true
				detections++
				if lat := round - failRound[u] + 1; lat > maxLatency {
					maxLatency = lat
				}
			}
		}
		if _, err := asker.Ask(gen.PaperRQL); err == nil {
			successes++
		}
	}
	for _, u := range volatile {
		if down[u] {
			closeEpisode(u, rounds-failRound[u])
		}
	}
	anchorsAlive := true
	for _, a := range []pattern.PeerID{"A1", "A2"} {
		if st, _ := asker.Membership.StatusOf(a); st == membership.StatusDead {
			anchorsAlive = false
		}
	}
	r.linef("  detector: rounds=%d successes=%d confirmations=%d max suspect→confirm latency=%d (bound %d)",
		rounds, successes, detections, maxLatency, churnDetectBound)
	r.check("detector mode: every query under churn succeeds", successes == rounds)
	r.check("detector confirmed the scripted outages", detections > 0)
	r.check("suspect→confirm timeline within the documented bound for every long outage",
		lateOrMissed == 0 && maxLatency <= churnDetectBound)
	r.check("always-up anchors never falsely confirmed dead", anchorsAlive)
	r.check("rejoins reinstated without scripted re-advertisement",
		asker.Membership.Stats().Rejoins > 0)
}
