package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

func init() {
	register("batch", "CLAIM-BATCH: columnar batch data plane — answers vs centralized evaluation, throughput, allocs/row, wire bytes (§12)", claimBatch)
}

// batchSweep is the machine-readable artifact (BENCH_PR6.json). When
// Smoke is set the sweep ran at reduced scale (inside go test, where
// wall-clock margins are meaningless — especially under -race) and only
// the correctness checks apply; headline numbers come from
// `sqpeer-bench -exp batch`.
type batchSweep struct {
	Providers int          `json:"providers"`
	Props     int          `json:"props"`
	Smoke     bool         `json:"smoke,omitempty"`
	Points    []batchPoint `json:"points"`
}

// batchStats is the data plane's cost at one sweep point.
type batchStats struct {
	Seconds      float64 `json:"seconds"`
	RowsPerSec   float64 `json:"rowsPerSec"`
	AllocsPerRow float64 `json:"allocsPerRow"`
	BytesPerRow  float64 `json:"bytesPerRow"`
	PayloadBytes int     `json:"payloadBytes"`
}

type batchPoint struct {
	Chains      int        `json:"chains"`
	RowsShipped int        `json:"rowsShipped"`
	AnswerRows  int        `json:"answerRows"`
	Batch       batchStats `json:"batch"`
	// CentralMatch is the answer check against rql.Eval over the union of
	// the provider bases; absent at points the sweep did not check.
	CentralMatch *bool  `json:"centralMatch,omitempty"`
	Digest       string `json:"digest"`
}

// claimBatch measures the columnar batch data plane on a multi-peer
// scan/join workload: a client P0 joins two property scans, each
// horizontally sliced across four provider peers, so every shipped row
// crosses the simulated wire once. The claim under test: the distributed
// answer equals the centralized evaluation of the same query over the
// union of the provider bases (checked at every smoke point and at the
// first headline point, outside the timed region), a same-seed rerun
// reproduces it, and the headline point ships ≥1M rows. Allocs/row is
// gated against the committed baseline by `sqpeer-bench -alloc-baseline`.
func claimBatch() *Report {
	r := &Report{ID: "batch", Title: "CLAIM-BATCH: columnar batch data plane — answers vs centralized evaluation, throughput, allocs/row, wire bytes (§12)", Pass: true}
	const (
		providers = 4
		props     = 2
	)
	// Inside a test binary the sweep shrinks: experiment results stay
	// assertable, wall-clock figures do not (the race detector alone
	// skews them >10×).
	chainSweep := []int{50_000, 200_000, 500_000}
	smoke := testing.Testing()
	if smoke {
		chainSweep = []int{1_000, 2_000, 5_000}
	}

	sweep := batchSweep{Providers: providers, Props: props, Smoke: smoke}
	allMatch := true
	r.linef("  p1⋈p2 over %d providers, horizontal slices:", providers)
	r.linef("  %8s %9s %8s | %8s %11s %9s %9s %11s | %s", "chains", "shipped", "answer",
		"secs", "rows/s", "allocs/r", "bytes/r", "payload", "central")
	for i, chains := range chainSweep {
		pt := runBatchPoint(chains, providers, props, smoke || i == 0)
		sweep.Points = append(sweep.Points, pt)
		central := "-"
		if m := pt.CentralMatch; m != nil {
			allMatch = allMatch && *m
			central = fmt.Sprintf("%v", *m)
		}
		r.linef("  %8d %9d %8d | %8.2f %11.0f %9.1f %9.0f %11d | %s",
			chains, pt.RowsShipped, pt.AnswerRows,
			pt.Batch.Seconds, pt.Batch.RowsPerSec, pt.Batch.AllocsPerRow,
			pt.Batch.BytesPerRow, pt.Batch.PayloadBytes, central)
		// Feed the registry the same way the Fig benches do, so the
		// allocation trajectory is queryable alongside throughput.
		usPerRow := pt.Batch.Seconds * 1e6 / float64(max(1, pt.RowsShipped))
		benchObserve(fmt.Sprintf("batch.chains%d", chains), usPerRow)
		ObserveBenchAlloc(fmt.Sprintf("batch.chains%d", chains),
			pt.Batch.AllocsPerRow, pt.Batch.BytesPerRow)
	}

	// Determinism: a same-seed rerun of the smallest point must land on
	// the same digest (the workload and engine have no hidden state).
	rerun := runBatchPoint(chainSweep[0], providers, props, false)
	deterministic := rerun.Digest == sweep.Points[0].Digest
	r.check("answer equals the centralized evaluation at every checked point", allMatch)
	r.check("same-seed batch rerun reproduces the digest", deterministic)
	if smoke {
		r.linef("  (reduced smoke sweep inside go test; run `sqpeer-bench -exp batch` for headline sizes)")
	} else {
		head := sweep.Points[len(sweep.Points)-1]
		r.check("headline point ships ≥1M rows across the wire", head.RowsShipped >= 1_000_000)
	}

	if blob, err := json.MarshalIndent(sweep, "", "  "); err == nil {
		r.ArtifactName = "BENCH_PR6.json"
		r.ArtifactJSON = append(blob, '\n')
	} else {
		r.check("marshal BENCH_PR6.json", false)
	}
	return r
}

// runBatchPoint builds a fresh system — `providers` simple peers each
// holding a horizontal slice of `chains` instance chains, plus a client
// root P0 with no base so every result row is shipped — and executes the
// unoptimized chain query (unions and join at the root, no join
// push-down) once, measuring wall time and allocator cost around the
// Execute call only. Parallelism 1 keeps dispatch order, and therefore
// the digest, deterministic. With checkCentral set, the answer is then
// compared against the centralized evaluation, outside the measurement.
func runBatchPoint(chains, providers, props int, checkCentral bool) batchPoint {
	syn := gen.NewSynthetic(props, false)
	bases := syn.Bases(providers, chains, gen.Horizontal)
	net := network.New()
	var nodes []*peer.Peer
	for id, base := range bases {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema,
			Base: base, Parallelism: 1}, net)
		if err != nil {
			panic(err)
		}
		// The 256-row default frame is tuned for interactive first-row
		// latency and would charge thousands of packet envelopes at the
		// headline point, measuring the envelope codec instead of the
		// data plane. 1024 keeps frame payloads under the allocator's
		// 32KB large-object threshold.
		p.Engine.BatchSize = 1024
		nodes = append(nodes, p)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	p0, err := peer.New(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: syn.Schema,
		Parallelism: 1}, net)
	if err != nil {
		panic(err)
	}
	p0.Engine.BatchSize = 1024
	for _, p := range nodes {
		p0.Learn(p.Advertisement())
	}
	pr, err := p0.PlanQuery(syn.Query(1, props))
	if err != nil {
		panic(err)
	}

	runtime.GC()
	before := obs.ReadAllocs()
	clock := StartClock()
	rows, execErr := p0.Engine.Execute(pr.Raw)
	secs := clock.Seconds()
	delta := obs.ReadAllocs().Delta(before)
	if execErr != nil {
		panic(execErr)
	}

	m := p0.Engine.Metrics()
	pt := batchPoint{Chains: chains, RowsShipped: m.RowsShipped, AnswerRows: rows.Len(),
		Batch:  batchStats{Seconds: secs, RowsPerSec: float64(m.RowsShipped) / max(secs, 1e-9)},
		Digest: rowDigest(rows)}
	pt.Batch.AllocsPerRow, pt.Batch.BytesPerRow = delta.PerOp(m.RowsShipped)
	for _, p := range nodes {
		pt.Batch.PayloadBytes += p.Channels.Stats().PayloadBytesSent
	}
	if checkCentral {
		match := pt.Digest == rowDigest(centralAnswer(syn, bases, props).Project(rows.Vars))
		pt.CentralMatch = &match
	}
	return pt
}

// centralAnswer evaluates the sweep's chain query with rql.Eval over the
// union of every provider base — the answer a single peer holding all the
// data would give.
func centralAnswer(syn *gen.Synthetic, bases map[pattern.PeerID]*rdf.Base, props int) *rql.ResultSet {
	merged := rdf.NewBase()
	for _, base := range bases {
		for _, tr := range base.Triples() {
			merged.Add(tr)
		}
	}
	c, err := rql.ParseAndAnalyze(syn.RQL(1, props), syn.Schema)
	if err != nil {
		panic(err)
	}
	rs, err := rql.Eval(c, merged)
	if err != nil {
		panic(err)
	}
	return rs
}

// rowDigest folds the rendered, sorted answer rows into one fnv64a
// value, in hex: two answers agreeing on it are byte-identical.
func rowDigest(rows *rql.ResultSet) string {
	h := fnv.New64a()
	for _, line := range rows.Sorted() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
