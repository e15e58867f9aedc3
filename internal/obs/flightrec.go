package obs

import (
	"encoding/json"
	"strconv"
	"sync"
)

// Flight recorder ring size and anomaly triggers.
const (
	// recorderRing bounds the recent-event ring buffer.
	recorderRing = 256
	// recorderMaxDumps bounds the retained post-mortem bundles (oldest
	// evicted).
	recorderMaxDumps = 8
	// slowFactor, slowMinSamples: a query-done event whose durMs exceeds
	// slowFactor × the running mean duration (after slowMinSamples
	// priming queries) trips a "slow-query" dump.
	slowFactor     = 3
	slowMinSamples = 5
	// burstCount, burstWindowMS: burstCount shed events — or burstCount
	// plan migrations — within a logical window of burstWindowMS trip a
	// "shed-burst" (or "migration-storm") dump.
	burstCount    = 3
	burstWindowMS = 1000
)

// Dump is one frozen post-mortem bundle: the trigger, the event ring at
// freeze time, and whatever query-scoped context (span subtree, critical
// path, ledger, admission state) the owning peer's Context callback
// could assemble for the triggering trace.
type Dump struct {
	// Reason names the trigger: "slow-query", "shed-burst",
	// "migration-storm", "condemn", or an SLO rule name.
	Reason string `json:"reason"`
	// TMS is the logical freeze time.
	TMS float64 `json:"tms"`
	// Peer is the recorder's peer.
	Peer string `json:"peer"`
	// Trace is the triggering query's trace ID ("" when the trigger is
	// not query-scoped, e.g. a condemn observed outside any query).
	Trace string `json:"trace,omitempty"`
	// Events is the frozen ring, oldest first, canonically ordered.
	Events []Event `json:"events"`
	// Context is the merged query-scoped bundle (spans, critical path,
	// ledger, admission occupancy) keyed by section name.
	Context map[string]any `json:"context,omitempty"`
}

// FlightRecorder keeps a bounded ring of one peer's recent events and
// freezes a post-mortem Dump when an anomaly trigger fires. Register its
// Observe method as an EventLog sink; it filters to its own peer's
// events (plus peer-less SLO alerts) internally. All trigger state is
// driven by logical timestamps carried on the events themselves, so
// trigger decisions are deterministic.
type FlightRecorder struct {
	mu   sync.Mutex
	peer string

	ring  []Event // bounded, oldest first
	dumps []*Dump

	// slow-query baseline
	durCount int
	durSum   float64
	// burst windows: logical timestamps of recent shed / migrate events
	sheds    []float64
	migrates []float64

	// Context assembles the query-scoped post-mortem sections for a
	// trace ID at freeze time. Set once at wiring, before traffic.
	Context func(trace string) map[string]any
}

// PeerID returns the recorder's peer (safe on nil).
func (fr *FlightRecorder) PeerID() string {
	if fr == nil {
		return ""
	}
	return fr.peer
}

// NewFlightRecorder builds a recorder for one peer.
func NewFlightRecorder(peer string) *FlightRecorder {
	return &FlightRecorder{peer: peer}
}

// Observe is the EventLog sink: records the event if it belongs to this
// recorder's peer and evaluates the anomaly triggers. Safe on nil.
func (fr *FlightRecorder) Observe(ev Event) {
	if fr == nil || ev.Peer != fr.peer {
		return
	}
	var dump *Dump
	fr.mu.Lock()
	fr.ring = append(fr.ring, ev)
	if len(fr.ring) > recorderRing {
		fr.ring = fr.ring[len(fr.ring)-recorderRing:]
	}
	switch {
	case ev.Component == "health" && ev.Kind == "condemn":
		dump = fr.freezeLocked("condemn", ev)
	case ev.Component == "exec" && ev.Kind == "shed":
		fr.sheds = trimWindow(append(fr.sheds, ev.TMS), ev.TMS-burstWindowMS)
		if len(fr.sheds) >= burstCount {
			fr.sheds = nil
			dump = fr.freezeLocked("shed-burst", ev)
		}
	case ev.Component == "exec" && ev.Kind == "migrate":
		fr.migrates = trimWindow(append(fr.migrates, ev.TMS), ev.TMS-burstWindowMS)
		if len(fr.migrates) >= burstCount {
			fr.migrates = nil
			dump = fr.freezeLocked("migration-storm", ev)
		}
	case ev.Component == "peer" && ev.Kind == "query-done":
		if dur, ok := parseMS(ev.Attrs["durMs"]); ok {
			primed := fr.durCount >= slowMinSamples
			mean := 0.0
			if fr.durCount > 0 {
				mean = fr.durSum / float64(fr.durCount)
			}
			if primed && mean > 0 && dur > mean*slowFactor {
				dump = fr.freezeLocked("slow-query", ev)
			}
			fr.durCount++
			fr.durSum += dur
		}
	}
	fr.mu.Unlock()
	fr.attachContext(dump)
}

// TriggerDump freezes a bundle on demand — the SLO evaluator's alert
// hook. Safe on nil.
func (fr *FlightRecorder) TriggerDump(reason, trace string, tms float64) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	dump := fr.freezeLocked(reason, Event{TMS: tms, Trace: trace})
	fr.mu.Unlock()
	fr.attachContext(dump)
}

// freezeLocked captures the ring into a new Dump. Dumps are stored by
// pointer so the caller can attach context after releasing the mutex
// (the Context callback re-enters the trace layer and must not run
// under the recorder lock) without the slice trim invalidating it.
func (fr *FlightRecorder) freezeLocked(reason string, ev Event) *Dump {
	d := &Dump{Reason: reason, TMS: ev.TMS, Peer: fr.peer, Trace: ev.Trace,
		Events: CanonicalEvents(append([]Event(nil), fr.ring...))}
	fr.dumps = append(fr.dumps, d)
	if len(fr.dumps) > recorderMaxDumps {
		fr.dumps = fr.dumps[len(fr.dumps)-recorderMaxDumps:]
	}
	return d
}

// attachContext fills the dump's query-scoped sections outside the lock.
func (fr *FlightRecorder) attachContext(d *Dump) {
	if d == nil || fr.Context == nil {
		return
	}
	ctx := fr.Context(d.Trace)
	fr.mu.Lock()
	d.Context = ctx
	fr.mu.Unlock()
}

// Dumps returns the retained post-mortem bundles, oldest first.
func (fr *FlightRecorder) Dumps() []Dump {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]Dump, len(fr.dumps))
	for i, d := range fr.dumps {
		out[i] = *d
	}
	return out
}

// DumpsJSON renders the bundles as indented JSON (the CI artifact).
func (fr *FlightRecorder) DumpsJSON() []byte {
	b, err := json.MarshalIndent(fr.Dumps(), "", "  ")
	if err != nil {
		return []byte("[]")
	}
	return append(b, '\n')
}

// trimWindow drops timestamps at or before the cutoff (ascending input).
func trimWindow(ts []float64, cutoff float64) []float64 {
	i := 0
	for i < len(ts) && ts[i] <= cutoff {
		i++
	}
	return ts[i:]
}

// parseMS parses a millisecond attribute rendered by trimFloat/fmt.
func parseMS(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}
