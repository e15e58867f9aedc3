package membership

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

// cluster wires n detectors onto one network, each advertising a small
// blob, everyone bootstrapping through the first node.
type cluster struct {
	net  *network.Network
	ids  []pattern.PeerID
	dets map[pattern.PeerID]*Detector
	// advs records ApplyAdv deliveries per observer.
	mu   sync.Mutex
	advs map[pattern.PeerID]map[pattern.PeerID]string
	// deaths/rejoins record liveness callbacks per observer.
	deaths  map[pattern.PeerID][]pattern.PeerID
	rejoins map[pattern.PeerID][]pattern.PeerID
}

func newCluster(t *testing.T, n int, opts Options) *cluster {
	t.Helper()
	c := &cluster{
		net:     network.New(),
		dets:    map[pattern.PeerID]*Detector{},
		advs:    map[pattern.PeerID]map[pattern.PeerID]string{},
		deaths:  map[pattern.PeerID][]pattern.PeerID{},
		rejoins: map[pattern.PeerID][]pattern.PeerID{},
	}
	for i := 0; i < n; i++ {
		id := pattern.PeerID(fmt.Sprintf("N%02d", i))
		c.ids = append(c.ids, id)
		d := New(id, c.net, opts)
		self := id
		c.advs[id] = map[pattern.PeerID]string{}
		d.ApplyAdv = func(peer pattern.PeerID, adv []byte) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.advs[self][peer] = string(adv)
		}
		d.OnDead = func(peer pattern.PeerID) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.deaths[self] = append(c.deaths[self], peer)
		}
		d.OnRejoin = func(peer pattern.PeerID) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.rejoins[self] = append(c.rejoins[self], peer)
		}
		blob, _ := json.Marshal(map[string]string{"peer": string(id)})
		d.SetLocalAdvertisement(blob)
		c.dets[id] = d
	}
	for _, id := range c.ids[1:] {
		if err := c.dets[id].Join(c.ids[0]); err != nil {
			t.Fatalf("join %s: %v", id, err)
		}
	}
	return c
}

// tickLive drives one round on every detector whose node is up.
func (c *cluster) tickLive() {
	for _, id := range c.ids {
		if !c.net.IsDown(id) {
			c.dets[id].Tick()
		}
	}
}

// converged reports whether every live detector sees every other live
// peer alive and holds its advertisement.
func (c *cluster) converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ids {
		if c.net.IsDown(id) {
			continue
		}
		d := c.dets[id]
		for _, other := range c.ids {
			if other == id || c.net.IsDown(other) {
				continue
			}
			if st, ok := d.StatusOf(other); !ok || st != StatusAlive {
				return false
			}
			if c.advs[id][other] == "" {
				return false
			}
		}
	}
	return true
}

func TestJoinConvergesBounded(t *testing.T) {
	c := newCluster(t, 8, Options{Seed: 1})
	for round := 1; round <= 12; round++ {
		c.tickLive()
		if c.converged() {
			t.Logf("converged after %d rounds", round)
			return
		}
	}
	t.Fatalf("8-node cluster did not converge within 12 rounds")
}

func TestCrashConfirmedWithinBound(t *testing.T) {
	c := newCluster(t, 5, Options{Seed: 2})
	for i := 0; i < 10 && !c.converged(); i++ {
		c.tickLive()
	}
	victim := c.ids[3]
	c.net.Fail(victim)
	// Bound: one full probe-ring pass to suspect (n-1 ticks worst case)
	// plus suspectTicks to confirm, plus gossip slack.
	bound := (len(c.ids) - 1) + suspectTicks + 3
	confirmed := -1
	for round := 1; round <= bound; round++ {
		c.tickLive()
		all := true
		for _, id := range c.ids {
			if id == victim {
				continue
			}
			if st, _ := c.dets[id].StatusOf(victim); st != StatusDead {
				all = false
			}
		}
		if all {
			confirmed = round
			break
		}
	}
	if confirmed < 0 {
		t.Fatalf("crash of %s not confirmed dead everywhere within %d rounds", victim, bound)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ids {
		if id == victim {
			continue
		}
		found := false
		for _, p := range c.deaths[id] {
			if p == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("OnDead for %s never fired at %s", victim, id)
		}
	}
}

func TestFalseSuspicionRefuted(t *testing.T) {
	c := newCluster(t, 4, Options{Seed: 3})
	for i := 0; i < 8 && !c.converged(); i++ {
		c.tickLive()
	}
	accuser, accused := c.ids[0], c.ids[1]
	inc := c.dets[accuser].Incarnation(accused)
	c.dets[accuser].Merge([]Entry{{Peer: accused, Status: StatusSuspect, Incarnation: inc}})
	if st, _ := c.dets[accuser].StatusOf(accused); st != StatusSuspect {
		t.Fatalf("seeded suspicion did not take")
	}
	for i := 0; i < 8; i++ {
		c.tickLive()
	}
	if st, _ := c.dets[accuser].StatusOf(accused); st != StatusAlive {
		t.Fatalf("live peer %s not refuted at %s: %v", accused, accuser, st)
	}
	if got := c.dets[accuser].Incarnation(accused); got <= inc {
		t.Fatalf("refutation did not raise incarnation: %d <= %d", got, inc)
	}
	if refs := c.dets[accused].Stats().Refutations; refs == 0 {
		t.Fatalf("accused peer recorded no refutation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.deaths[accuser]) != 0 {
		t.Fatalf("falsely suspected peer was confirmed dead: %v", c.deaths[accuser])
	}
}

func TestRejoinAfterCrash(t *testing.T) {
	c := newCluster(t, 4, Options{Seed: 4})
	for i := 0; i < 8 && !c.converged(); i++ {
		c.tickLive()
	}
	victim := c.ids[2]
	c.net.Fail(victim)
	for i := 0; i < 12; i++ {
		c.tickLive()
	}
	if st, _ := c.dets[c.ids[0]].StatusOf(victim); st != StatusDead {
		t.Fatalf("victim not confirmed dead before restart")
	}
	c.net.Recover(victim)
	c.dets[victim].Rejoin()
	for i := 0; i < 12; i++ {
		c.tickLive()
	}
	for _, id := range c.ids {
		if id == victim {
			continue
		}
		if st, _ := c.dets[id].StatusOf(victim); st != StatusAlive {
			t.Fatalf("rejoined %s still %v at %s", victim, st, id)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rejoins[c.ids[0]]) == 0 {
		t.Fatalf("OnRejoin never fired at %s", c.ids[0])
	}
}

// A dead member resurfacing as suspect at a higher incarnation — e.g. a
// view frozen across the observer's own downtime that catches up via a
// third party's suspicion gossip — must still fire OnRejoin: the member
// is no longer confirmed dead, so the routing quarantine has to lift
// even though the alive@higher-inc refutation was never seen directly.
func TestDeadToSuspectFiresRejoin(t *testing.T) {
	c := newCluster(t, 2, Options{Seed: 6})
	obs, subject := c.ids[0], c.ids[1]
	c.dets[obs].Merge([]Entry{{Peer: subject, Status: StatusDead, Incarnation: 2}})
	c.mu.Lock()
	deaths := len(c.deaths[obs])
	c.mu.Unlock()
	if deaths == 0 {
		t.Fatal("seeded death did not fire OnDead")
	}
	c.dets[obs].Merge([]Entry{{Peer: subject, Status: StatusSuspect, Incarnation: 3}})
	if st, _ := c.dets[obs].StatusOf(subject); st != StatusSuspect {
		t.Fatalf("suspect@3 did not supersede dead@2: %v", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rejoins[obs]) == 0 {
		t.Fatal("dead→suspect at higher incarnation did not fire OnRejoin")
	}
}

func TestPartitionDetectedAndHealedBounded(t *testing.T) {
	c := newCluster(t, 6, Options{Seed: 5})
	for i := 0; i < 10 && !c.converged(); i++ {
		c.tickLive()
	}
	groupA, groupB := c.ids[:3], c.ids[3:]
	for _, a := range groupA {
		for _, b := range groupB {
			c.net.Partition(a, b)
		}
	}
	// Both sides must confirm the other side dead: suspicion timeouts on
	// both sides of the cut, per the detected-partition requirement.
	detectBound := (len(c.ids) - 1) + suspectTicks + 4
	detected := false
	for round := 1; round <= detectBound; round++ {
		c.tickLive()
		aSees, _ := c.dets[groupA[0]].StatusOf(groupB[0])
		bSees, _ := c.dets[groupB[0]].StatusOf(groupA[0])
		if aSees == StatusDead && bSees == StatusDead {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatalf("partition not confirmed on both sides within %d rounds", detectBound)
	}
	for _, a := range groupA {
		for _, b := range groupB {
			c.net.Heal(a, b)
		}
	}
	healBound := 20
	for round := 1; round <= healBound; round++ {
		c.tickLive()
		if c.converged() {
			t.Logf("reconverged %d rounds after heal", round)
			return
		}
	}
	t.Fatalf("views did not reconverge within %d rounds of heal", healBound)
}

// TestDeterministicHistory runs the same scripted scenario twice and
// requires identical membership histories.
func TestDeterministicHistory(t *testing.T) {
	run := func() string {
		c := newCluster(t, 5, Options{Seed: 6})
		var hist string
		for round := 0; round < 20; round++ {
			if round == 6 {
				c.net.Fail(c.ids[2])
			}
			if round == 14 {
				c.net.Recover(c.ids[2])
				c.dets[c.ids[2]].Rejoin()
			}
			c.tickLive()
			for _, id := range c.ids {
				for _, e := range c.dets[id].Members() {
					hist += fmt.Sprintf("%d|%s|%s|%v|%d|%d;", round, id, e.Peer, e.Status, e.Incarnation, e.AdvEpoch)
				}
			}
		}
		return hist
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed membership histories differ")
	}
}
