package membership

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

// lawSelf is the detector under test; generated entries never name it,
// because claims about the detector's own peer take the refutation path
// rather than the merge.
const lawSelf pattern.PeerID = "S"

// randomEntries draws a batch of gossip/sync entries about a small peer
// population, so batches collide on the same members. The advertisement
// blob is a function of (peer, AdvEpoch): one epoch names one
// advertisement, exactly as only the owner bumps its epoch.
func randomEntries(rng *rand.Rand) []Entry {
	out := make([]Entry, rng.Intn(9))
	for i := range out {
		peer := pattern.PeerID(fmt.Sprintf("P%d", rng.Intn(5)))
		e := Entry{Peer: peer, Status: Status(rng.Intn(3)), Incarnation: uint64(rng.Intn(4))}
		if epoch := uint64(rng.Intn(4)); epoch > 0 {
			e.AdvEpoch = epoch
			e.Adv = []byte(fmt.Sprintf("%q", fmt.Sprintf("%s@%d", peer, epoch)))
		}
		out[i] = e
	}
	return out
}

// mergedView merges the batches, in order, into a fresh detector.
func mergedView(batches ...[]Entry) *Detector {
	d := New(lawSelf, network.New(), Options{Seed: 1})
	for _, b := range batches {
		d.Merge(b)
	}
	return d
}

// fullView returns every remote member's full entry, advertisement blob
// included, sorted by peer — Members() plus the blobs it omits, in a
// form that can be merged into another detector.
func fullView(d *Detector) []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Entry, 0, len(d.members))
	for id, m := range d.members {
		if id != d.self {
			out = append(out, m.entry)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// sameView fails the test when two detectors disagree on Members() or on
// any member's advertisement blob.
func sameView(t *testing.T, law string, seed int64, a, b *Detector) {
	t.Helper()
	if ma, mb := a.Members(), b.Members(); !reflect.DeepEqual(ma, mb) {
		t.Fatalf("seed %d: %s: Members() differ:\n%+v\n%+v", seed, law, ma, mb)
	}
	if fa, fb := fullView(a), fullView(b); !reflect.DeepEqual(fa, fb) {
		t.Fatalf("seed %d: %s: advertisement blobs differ:\n%+v\n%+v", seed, law, fa, fb)
	}
}

// TestMergeIsASemilatticeJoin checks the DESIGN §14 claim that merge
// order never matters: over seeded random entry batches, Detector.Merge
// is commutative, associative and idempotent.
func TestMergeIsASemilatticeJoin(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := gen.NewRNG(seed)
		a, b, c := randomEntries(rng), randomEntries(rng), randomEntries(rng)

		sameView(t, "commutativity", seed, mergedView(a, b), mergedView(b, a))

		// (a ⊔ b) ⊔ c against a ⊔ (b ⊔ c), the inner join shipped as the
		// full entries of a detector that merged b and c.
		bc := fullView(mergedView(b, c))
		sameView(t, "associativity", seed, mergedView(a, b, c), mergedView(a, bc))

		d := mergedView(a)
		before := d.Stats()
		d.Merge(a)
		d.Merge(fullView(d))
		sameView(t, "idempotence", seed, d, mergedView(a))
		if after := d.Stats(); after.EntriesApplied != before.EntriesApplied || after.AdvApplied != before.AdvApplied {
			t.Fatalf("seed %d: re-merging known entries applied updates: %+v -> %+v", seed, before, after)
		}
	}
}
