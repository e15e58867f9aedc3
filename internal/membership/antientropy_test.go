package membership

import (
	"encoding/json"
	"sync"
	"testing"

	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

// twoDetectors wires A and B onto a fresh network with adv recording.
func twoDetectors(t *testing.T) (*Detector, *Detector, func() map[string]map[string]string) {
	t.Helper()
	net := network.New()
	var mu sync.Mutex
	applied := map[string]map[string]string{"A": {}, "B": {}}
	mk := func(id pattern.PeerID) *Detector {
		d := New(id, net, Options{Seed: 11})
		self := string(id)
		d.ApplyAdv = func(peer pattern.PeerID, adv []byte) {
			mu.Lock()
			defer mu.Unlock()
			applied[self][string(peer)] = string(adv)
		}
		return d
	}
	a, b := mk("A"), mk("B")
	snapshot := func() map[string]map[string]string {
		mu.Lock()
		defer mu.Unlock()
		out := map[string]map[string]string{}
		for k, v := range applied {
			cp := map[string]string{}
			for p, blob := range v {
				cp[p] = blob
			}
			out[k] = cp
		}
		return out
	}
	return a, b, snapshot
}

func TestSyncPullsStaleAdvertisement(t *testing.T) {
	a, b, snap := twoDetectors(t)
	blob, _ := json.Marshal(map[string]string{"schema": "v1"})
	b.SetLocalAdvertisement(blob)
	if err := a.Join(b.Self()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := snap()["A"]["B"]; got != string(blob) {
		t.Fatalf("A did not pull B's advertisement: %q", got)
	}
	// A fresher epoch replaces the blob; a replay of the old one does not.
	blob2, _ := json.Marshal(map[string]string{"schema": "v2"})
	b.SetLocalAdvertisement(blob2)
	if err := a.SyncWith(b.Self()); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if got := snap()["A"]["B"]; got != string(blob2) {
		t.Fatalf("A did not adopt the fresher advertisement: %q", got)
	}
	a.Merge([]Entry{{Peer: b.Self(), Status: StatusAlive, Incarnation: 1, AdvEpoch: 1, Adv: blob}})
	if got := snap()["A"]["B"]; got != string(blob2) {
		t.Fatalf("stale epoch replay regressed the advertisement: %q", got)
	}
}

func TestSyncPushesFresherAdvertisement(t *testing.T) {
	// The initiator holds the fresher state: the responder's Want list
	// must trigger a push rather than leave it stale.
	a, b, snap := twoDetectors(t)
	blob, _ := json.Marshal(map[string]string{"schema": "a1"})
	a.SetLocalAdvertisement(blob)
	if err := a.SyncWith(b.Self()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := snap()["B"]["A"]; got != string(blob) {
		t.Fatalf("B did not receive A's advertisement via push: %q", got)
	}
	if b.Stats().AdvApplied == 0 {
		t.Fatalf("push not accounted at B")
	}
}

func TestSyncSpreadsThirdPartyState(t *testing.T) {
	// C's entry reaches B through A: sync ships entries the digest never
	// mentioned, so views converge transitively without C talking to B.
	net := network.New()
	a := New("A", net, Options{Seed: 12})
	b := New("B", net, Options{Seed: 12})
	c := New("C", net, Options{Seed: 12})
	var mu sync.Mutex
	got := map[string]string{}
	b.ApplyAdv = func(peer pattern.PeerID, adv []byte) {
		mu.Lock()
		defer mu.Unlock()
		got[string(peer)] = string(adv)
	}
	blob, _ := json.Marshal(map[string]string{"schema": "c1"})
	c.SetLocalAdvertisement(blob)
	if err := a.Join(c.Self()); err != nil {
		t.Fatalf("A join C: %v", err)
	}
	if err := a.SyncWith(b.Self()); err != nil {
		t.Fatalf("A sync B: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got["C"] != string(blob) {
		t.Fatalf("C's advertisement did not reach B through A: %q", got["C"])
	}
	if st, ok := b.StatusOf("C"); !ok || st != StatusAlive {
		t.Fatalf("B does not see C alive: %v %v", st, ok)
	}
}

func TestDigestStatusGossip(t *testing.T) {
	// A sync digest alone must carry suspicion: B learns A suspects C
	// without any entry/push for C's advertisement.
	net := network.New()
	a := New("A", net, Options{Seed: 13})
	b := New("B", net, Options{Seed: 13})
	a.Merge([]Entry{{Peer: "C", Status: StatusSuspect, Incarnation: 3}})
	if err := a.SyncWith(b.Self()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st, ok := b.StatusOf("C"); !ok || st != StatusSuspect {
		t.Fatalf("digest did not carry suspicion to B: %v %v", st, ok)
	}
	if b.Incarnation("C") != 3 {
		t.Fatalf("incarnation not carried: %d", b.Incarnation("C"))
	}
}

func TestPiggybackRoundTrip(t *testing.T) {
	net := network.New()
	a := New("A", net, Options{Seed: 14})
	b := New("B", net, Options{Seed: 14})
	a.Merge([]Entry{{Peer: "X", Status: StatusDead, Incarnation: 2}})
	blob := a.Piggyback()
	if blob == nil {
		t.Fatalf("no piggyback despite queued update")
	}
	b.HandleGossip(a.Self(), blob)
	if st, ok := b.StatusOf("X"); !ok || st != StatusDead {
		t.Fatalf("gossip blob did not carry X's death: %v %v", st, ok)
	}
	// TTL: the queue drains after gossipTTL shipments.
	for i := 0; i < 20; i++ {
		a.Piggyback()
	}
	if got := a.Piggyback(); got != nil {
		t.Fatalf("piggyback queue never drains: %s", got)
	}
}
