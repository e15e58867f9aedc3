package main

import (
	"fmt"
	"sort"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
)

// workload is one named input family: how to make its operation script
// from a seed, and how its peers are configured. Every workload starts
// from the same kind of SON: a super-peer S0 in front of peers holding
// chains over gen.NewSynthetic(chainProps, true), laid out by mixedData.
type workload struct {
	name string
	// script makes the operation script; n is its length in operations.
	script func(seed int64, n, props int, sharing []pattern.PeerID, size scale) []op
	// opsPerSecond sizes the script from --seconds: the same seconds
	// always give the same script length, so every run of a seed does
	// identical work.
	opsPerSecond float64
	// hardened configures every peer for faults: deadlines, retry,
	// quarantine and partial answers, under a seeded fault injector.
	hardened bool
	size     scale
}

// chainProps is the chain length of the community schema, which has a
// subproperty under every chain property.
const chainProps = 8

// scale holds the fixture sizes; tests shrink them.
type scale struct {
	peers, chains int
	// joinChains and updateChains size a churn join's base and a churn
	// update's insertion.
	joinChains, updateChains int
}

var workloads = []*workload{
	{name: "fanout_small", script: queryScript, opsPerSecond: 15,
		size: scale{peers: 1000, chains: 2000}},
	{name: "churn_update", script: churnScript, opsPerSecond: 250,
		size: scale{peers: 1000, chains: 2000, joinChains: 100, updateChains: 20}},
	{name: "faulty_fanout", script: queryScript, opsPerSecond: 15, hardened: true,
		size: scale{peers: 1000, chains: 2000}},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The client and super-peer ids.
const (
	clientID pattern.PeerID = "C0"
	superID  pattern.PeerID = "S0"
)

// faultRates are faulty_fanout's per-delivery faults: a few percent of
// drops, duplicates and delay spikes past the peers' deadline.
var faultRates = faults.Rates{Drop: 0.01, Duplicate: 0.01, DelaySpike: 0.01, SpikeMS: 300}

// controlKinds are never faulted: advertisement and routing traffic.
var controlKinds = []string{"adv.push", "adv.push.reply", "adv.leave", "query.route", "query.route.reply"}

// peerConfig is the configuration of every peer the workload starts;
// the plain one is exactly what overlay.Hybrid.AddSimplePeer uses.
func (w *workload) peerConfig(id pattern.PeerID, syn *gen.Synthetic, base *rdf.Base) peer.Config {
	cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema, Base: base}
	if w.hardened {
		cfg.Parallelism = 1 // sequential dispatch keeps fault draws in a seeded order
		cfg.DeadlineMS = 200
		cfg.MaxRetries = 3
		cfg.AllowPartial = true
		cfg.Quarantine = true
	}
	return cfg
}

// chainRes names chain j's resource at position i, the IRI scheme of
// gen.Synthetic.Bases.
func chainRes(i, j int) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/syn#r_%d_%d", i, j))
}

// linkTriples are the triples gen.Synthetic.Bases writes for chain j's
// link through property i: the statement and the typing of both ends.
func linkTriples(syn *gen.Synthetic, i, j int) []rdf.Triple {
	return []rdf.Triple{
		rdf.Statement(chainRes(i-1, j), syn.Prop(i), chainRes(i, j)),
		rdf.Typing(chainRes(i-1, j), syn.Class(i-1)),
		rdf.Typing(chainRes(i, j), syn.Class(i)),
	}
}

// chainTriples are the links through properties first..first+props-1
// of chains from..from+n-1.
func chainTriples(syn *gen.Synthetic, first, props, from, n int) []rdf.Triple {
	var out []rdf.Triple
	for j := from; j < from+n; j++ {
		for i := first; i < first+props; i++ {
			out = append(out, linkTriples(syn, i, j)...)
		}
	}
	return out
}

func peerIDs(n int) []pattern.PeerID {
	ids := make([]pattern.PeerID, n)
	for k := range ids {
		ids[k] = pattern.PeerID(fmt.Sprintf("SP-%04d", k))
	}
	return ids
}

// mixedData is gen.Mixed with seeded chain slices: a √peers grid whose
// rows are property groups and whose columns are chain slices, each
// chain landing in a seeded column. With 8 properties and 1000 peers a
// 2-pattern query meets 2 rows × 32 columns = 64 sites; the peers off
// the grid's first rows join the SON with empty bases.
func mixedData(syn *gen.Synthetic, seed int64, size scale) map[pattern.PeerID][]rdf.Triple {
	rng := gen.NewRNG(seed)
	ids := peerIDs(size.peers)
	grid := 1
	for grid*grid < size.peers {
		grid++
	}
	out := make(map[pattern.PeerID][]rdf.Triple, len(ids))
	for _, id := range ids {
		out[id] = nil
	}
	for j := 0; j < size.chains; j++ {
		col := rng.Intn(grid)
		for i := 1; i <= syn.NProps; i++ {
			id := ids[(((i-1)%grid)*grid+col)%size.peers]
			out[id] = append(out[id], linkTriples(syn, i, j)...)
		}
	}
	return out
}

// opKind enumerates script operations.
type opKind int

const (
	opQuery opKind = iota
	opJoin
	opUpdate
	opDepart
)

var opNames = [...]string{"query", "join", "update", "depart"}

func (k opKind) String() string { return opNames[k] }

// op is one scripted operation. A query asks the 2-pattern chain query
// over properties start and start+1. A join starts peer with a base of
// the links through properties start, start+1 of chains
// chain..chain+n-1; an update inserts those links into peer's base; a
// departure takes peer out of the SON.
type op struct {
	kind  opKind
	start int
	peer  pattern.PeerID
	chain int
	n     int
}

func (o op) String() string {
	return fmt.Sprintf("%s(start=%d peer=%s chain=%d n=%d)", o.kind, o.start, o.peer, o.chain, o.n)
}

// queryScript is n seeded 2-pattern chain queries, each over a seeded
// window of two adjacent properties.
func queryScript(seed int64, n, props int, _ []pattern.PeerID, _ scale) []op {
	rng := gen.NewRNG(seed ^ 0x5eed)
	out := make([]op, n)
	for k := range out {
		out[k] = op{kind: opQuery, start: 1 + rng.Intn(props-1)}
	}
	return out
}

// churnRound is the operation pattern the churn script repeats: one
// query, then joins, updates and departures, sized so that queries stay
// under half of the script's CPU.
var churnRound = []opKind{opQuery,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
	opJoin, opUpdate, opUpdate, opUpdate, opDepart,
}

const (
	// churnWindow is how many joined peers stay live: once more have
	// joined, each departure takes the oldest, so the SON stays near
	// its initial size and every seed's SON evolves alike.
	churnWindow    = 20
	churnChainBase = 1_000_000 // fresh chain ids start here
)

// churnScript repeats churnRound with seeded details: which properties
// a join or an update covers, which live joined peer an update goes
// to, and — until churnWindow peers have joined — which original peer
// departs.
func churnScript(seed int64, n, props int, sharing []pattern.PeerID, size scale) []op {
	rng := gen.NewRNG(seed ^ 0xc1124)
	original := append([]pattern.PeerID(nil), sharing...)
	sort.Slice(original, func(i, j int) bool { return original[i] < original[j] })
	var joined []pattern.PeerID
	nextChain := churnChainBase
	out := make([]op, 0, n)
	for k := 0; k < n; k++ {
		switch kind := churnRound[k%len(churnRound)]; kind {
		case opQuery:
			out = append(out, op{kind: opQuery, start: 1 + rng.Intn(props-1)})
		case opJoin:
			id := pattern.PeerID(fmt.Sprintf("J-%05d", k))
			out = append(out, op{kind: opJoin, peer: id, start: 1 + rng.Intn(props-1), chain: nextChain, n: size.joinChains})
			nextChain += size.joinChains
			joined = append(joined, id)
		case opUpdate:
			out = append(out, op{kind: opUpdate, peer: joined[rng.Intn(len(joined))], start: 1 + rng.Intn(props-1), chain: nextChain, n: size.updateChains})
			nextChain += size.updateChains
		case opDepart:
			if len(joined) > churnWindow || len(original) == 0 {
				out = append(out, op{kind: opDepart, peer: joined[0]})
				joined = joined[1:]
			} else {
				i := rng.Intn(len(original))
				out = append(out, op{kind: opDepart, peer: original[i]})
				original = append(original[:i], original[i+1:]...)
			}
		}
	}
	return out
}
