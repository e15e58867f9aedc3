package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
)

func init() {
	register("trace", "CLAIM-TRACE: deterministic distributed query tracing with exact critical-path attribution (§2.4/§2.5)", claimTrace)
}

// tracedSystem is paperSystem with observability wired in: every peer
// publishes into one shared registry, and only the asking root (P1)
// carries a tracer — remote peers' spans reach the root's trace through
// the channel layer, not through local tracers.
func tracedSystem(pairs int) (map[pattern.PeerID]*peer.Peer, *network.Network, *obs.Tracer, *obs.Registry) {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(pairs)
	net := network.New()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	peers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id], Obs: reg}
		if id == "P1" {
			cfg.Tracer = tracer
		}
		p, err := peer.New(cfg, net)
		if err != nil {
			panic(err)
		}
		peers[id] = p
	}
	for _, a := range peers {
		for _, b := range peers {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	net.ResetCounters()
	return peers, net, tracer, reg
}

// tracedAsk runs the Figure-3 paper query at P1 on a traced system and
// returns the tracer, registry, network counters and an answer digest.
// The execution is sequential, so the byte-identity gate has no schedule
// freedom at all; the k-token queue model introduces parallelism
// analytically at Analyze time.
func tracedAsk(pairs int) (*obs.Tracer, *obs.Registry, network.Counters, string) {
	peers, net, tracer, reg := tracedSystem(pairs)
	p1 := peers["P1"]
	rows, err := p1.Ask(gen.PaperRQL)
	if err != nil {
		panic(fmt.Sprintf("trace: traced ask failed: %v", err))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", rows.Sorted())
	return tracer, reg, net.Counters(), fmt.Sprintf("%016x", h.Sum64())
}

// untracedAsk is the control: the same system and query with no tracer
// and no registry, for the overhead comparison.
func untracedAsk(pairs int) (network.Counters, string) {
	peers, net := paperSystem(pairs)
	p1 := peers["P1"]
	rows, err := p1.Ask(gen.PaperRQL)
	if err != nil {
		panic(fmt.Sprintf("trace: untraced ask failed: %v", err))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", rows.Sorted())
	return net.Counters(), fmt.Sprintf("%016x", h.Sum64())
}

// claimTrace validates the observability layer end to end.
//
// (a) Determinism: two fresh same-scenario runs export byte-identical
// JSONL span listings (no wall clock, no RNG, creation-order layout).
// (b) Cross-peer propagation: remote peers' execution appears in the
// root's trace as grafted remote@<peer> subtrees, although only P1 owns
// a tracer. (c) Exact attribution: per-leaf phase buckets sum to each
// leaf's total and all self charges sum to the end-to-end root total
// (Attribution.Check). (d) Bounded cost: at Figure-3 scale the traced
// run ships <=5% more bytes and simulated latency than the untraced
// control, and the answers are identical; the disabled path allocates
// nothing (proved by obs.TestDisabledPathAllocations under `go test`).
// (e) The unified registry serves every layer's counters in one sorted
// snapshot, including the stats-packet arrivals of this run.
func claimTrace() *Report {
	r := &Report{ID: "trace", Title: "CLAIM-TRACE: deterministic distributed query tracing with exact critical-path attribution (§2.4/§2.5)", Pass: true}
	const pairs = 200

	tracer1, reg, c1, digest1 := tracedAsk(pairs)
	tracer2, _, _, _ := tracedAsk(pairs)
	jsonl1, jsonl2 := tracer1.JSONL(), tracer2.JSONL()

	traces := tracer1.Traces()
	if len(traces) == 0 {
		r.check("traced run produced a trace", false)
		return r
	}
	tr := traces[0]
	layout := tr.Layout()
	remoteSpans := 0
	remoteOffP1 := false
	unclosed := 0
	for _, es := range layout {
		if es.Kind == obs.KindRemote {
			remoteSpans++
			if es.Peer != "P1" && es.Peer != "" {
				remoteOffP1 = true
			}
		}
		if _, ok := es.Attrs["unclosed"]; ok {
			unclosed++
		}
	}

	r.linef("  Figure-3 query at %d pairs: %d spans, %d shipped remote subtrees, end-to-end %.2f logical ms",
		pairs, len(layout), remoteSpans, tr.Root().TotalMS())
	r.check("(a) same-scenario reruns export byte-identical JSONL",
		len(jsonl1) > 0 && bytes.Equal(jsonl1, jsonl2))
	r.check("(a) every span closed on every return path", unclosed == 0)
	r.check("(b) remote peers' spans grafted into P1's trace without remote tracers",
		remoteSpans >= 2 && remoteOffP1)
	r.check("chrome trace_event export is valid JSON", json.Valid(tracer1.TraceEventJSON()))

	att := obs.Analyze(tr, 2)
	if att == nil {
		r.check("(c) attribution computed", false)
		return r
	}
	for _, l := range strings.Split(strings.TrimRight(att.String(), "\n"), "\n") {
		r.linef("  %s", l)
	}
	r.check("(c) attribution sums exactly (per leaf and end-to-end)", att.Check() == nil)
	r.check("(c) every dispatch leaf attributed", len(att.Leaves) >= 3)
	r.check("(c) modeled 2-token makespan between serial and sum bounds",
		att.ModeledMakespanMS <= att.EndToEndMS+1e-6)

	cu, digestU := untracedAsk(pairs)
	bytesOverhead := pct(c1.Bytes-cu.Bytes, cu.Bytes)
	latOverhead := pctF(c1.SimulatedMS-cu.SimulatedMS, cu.SimulatedMS)
	r.linef("  overhead vs untraced control: bytes %d→%d (+%.2f%%), simulated %.1fms→%.1fms (+%.2f%%)",
		cu.Bytes, c1.Bytes, bytesOverhead, cu.SimulatedMS, c1.SimulatedMS, latOverhead)
	r.check("(d) tracing changes no answers", digest1 == digestU)
	r.check("(d) enabled tracing ships <=5% extra bytes at Figure-3 scale", bytesOverhead <= 5)
	r.check("(d) enabled tracing adds <=5% simulated latency", latOverhead <= 5)

	snap := reg.Snapshot()
	var statsReceived, rowsShipped float64
	for _, m := range snap {
		switch m.Name {
		case "exec_stats_packets_received_total":
			statsReceived += m.Value
		case "exec_rows_shipped_total":
			rowsShipped += m.Value
		}
	}
	r.linef("  unified registry: %d metric rows; stats packets received=%.0f rows shipped=%.0f",
		len(snap), statsReceived, rowsShipped)
	r.check("(e) one registry serves exec, channel and stats-arrival counters",
		len(snap) > 20 && statsReceived > 0 && rowsShipped > 0)
	return r
}

func pct(delta, base int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(delta) / float64(base)
}

func pctF(delta, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * delta / base
}

// TraceBundle is a captured trace ready to write to disk: the Chrome
// trace_event file (load in chrome://tracing or Perfetto), the sorted
// JSONL span listing, and the human-readable critical-path report.
type TraceBundle struct {
	ChromeJSON []byte
	JSONL      []byte
	Report     string
}

// CaptureTrace runs the Figure-3 paper query on a traced system and
// returns the exported trace (the `sqpeer-bench -trace` payload).
func CaptureTrace() *TraceBundle {
	tracer, _, _, _ := tracedAsk(20)
	var rep strings.Builder
	for _, tr := range tracer.Traces() {
		if att := obs.Analyze(tr, 2); att != nil {
			rep.WriteString(att.String())
		}
	}
	return &TraceBundle{
		ChromeJSON: tracer.TraceEventJSON(),
		JSONL:      tracer.JSONL(),
		Report:     rep.String(),
	}
}
