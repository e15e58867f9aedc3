package harness

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

func init() {
	register("batch", "CLAIM-BATCH: columnar batch data plane — answers vs centralized evaluation, allocs/row, wire bytes (§12)", claimBatch)
}

// batchRun is the data plane's cost and answer at one sweep point.
type batchRun struct {
	chains       int
	rowsShipped  int
	answerRows   int
	allocsPerRow float64
	bytesPerRow  float64
	payloadBytes int
	// centralMatch is the answer check against rql.Eval over the union of
	// the provider bases; false when the run did not check.
	centralMatch bool
	digest       string
}

// maxAllocsPerRow gates the batch plane's allocator cost at the largest
// sweep point: 1.3 allocs/row measured, plus a 20% margin.
const maxAllocsPerRow = 1.56

// claimBatch measures the columnar batch data plane on a multi-peer
// scan/join workload: a client P0 joins two property scans, each
// horizontally sliced across four provider peers, so every shipped row
// crosses the simulated wire once. The claim under test: the distributed
// answer equals the centralized evaluation of the same query over the
// union of the provider bases at every sweep point (checked outside the
// measured region), a same-seed rerun reproduces it, and allocs/row at
// the largest point stays within maxAllocsPerRow.
func claimBatch() *Report {
	r := &Report{ID: "batch", Title: "CLAIM-BATCH: columnar batch data plane — answers vs centralized evaluation, allocs/row, wire bytes (§12)", Pass: true}
	const (
		providers = 4
		props     = 2
	)
	chainSweep := []int{1_000, 2_000, 5_000}

	var runs []batchRun
	allMatch := true
	r.linef("  p1⋈p2 over %d providers, horizontal slices:", providers)
	r.linef("  %8s %9s %8s | %9s %9s %11s | %s", "chains", "shipped", "answer",
		"allocs/r", "bytes/r", "payload", "central")
	for _, chains := range chainSweep {
		run := runBatchPoint(chains, providers, props, true)
		runs = append(runs, run)
		allMatch = allMatch && run.centralMatch
		r.linef("  %8d %9d %8d | %9.1f %9.0f %11d | %v",
			chains, run.rowsShipped, run.answerRows,
			run.allocsPerRow, run.bytesPerRow, run.payloadBytes, run.centralMatch)
	}

	// Determinism: a same-seed rerun of the smallest point must land on
	// the same digest (the workload and engine have no hidden state).
	rerun := runBatchPoint(chainSweep[0], providers, props, false)
	head := runs[len(runs)-1]
	r.check("answer equals the centralized evaluation at every sweep point", allMatch)
	r.check("same-seed batch rerun reproduces the digest", rerun.digest == runs[0].digest)
	r.check(fmt.Sprintf("allocs/row ≤ %.2f at the %d-chain point", maxAllocsPerRow, head.chains),
		head.allocsPerRow <= maxAllocsPerRow)
	return r
}

// runBatchPoint builds a fresh system — `providers` simple peers each
// holding a horizontal slice of `chains` instance chains, plus a client
// root P0 with no base so every result row is shipped — and executes the
// unoptimized chain query (unions and join at the root, no join
// push-down) once, measuring allocator cost around the Execute call
// only. Parallelism 1 keeps dispatch order, and therefore the digest,
// deterministic. With checkCentral set, the answer is then
// compared against the centralized evaluation, outside the measurement.
func runBatchPoint(chains, providers, props int, checkCentral bool) batchRun {
	syn := gen.NewSynthetic(props, false)
	bases := syn.Bases(providers, chains, gen.Horizontal)
	net := network.New()
	var nodes []*peer.Peer
	for id, base := range bases {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema,
			Base: base, Options: exec.Options{Parallelism: 1}}, net)
		if err != nil {
			panic(err)
		}
		// The 256-row default frame is tuned for interactive first-row
		// latency and would charge one packet envelope per 256 rows,
		// measuring the envelope codec instead of the data plane. 1024 keeps frame payloads under the allocator's
		// 32KB large-object threshold.
		p.Engine.BatchSize = 1024
		nodes = append(nodes, p)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	p0, err := peer.New(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: syn.Schema,
		Options: exec.Options{Parallelism: 1}}, net)
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
	rows, execErr := p0.Engine.Execute(pr.Raw)
	delta := obs.ReadAllocs().Delta(before)
	if execErr != nil {
		panic(execErr)
	}

	m := p0.Engine.Metrics()
	run := batchRun{chains: chains, rowsShipped: m.RowsShipped, answerRows: rows.Len(),
		digest: rowDigest(rows)}
	run.allocsPerRow, run.bytesPerRow = delta.PerOp(m.RowsShipped)
	for _, p := range nodes {
		run.payloadBytes += p.Channels.Stats().PayloadBytesSent
	}
	if checkCentral {
		run.centralMatch = run.digest == rowDigest(centralAnswer(syn, bases, props).Project(rows.Vars))
	}
	return run
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
