package obs

import (
	"strconv"
	"testing"
)

func recorderOn(t *testing.T) (*EventLog, *FlightRecorder, *float64) {
	t.Helper()
	clock := 0.0
	log := NewEventLog(func() float64 { return clock })
	fr := NewFlightRecorder("P0")
	log.AddSink(fr.Observe)
	return log, fr, &clock
}

func TestFlightRecorderCondemnTrigger(t *testing.T) {
	log, fr, clock := recorderOn(t)
	*clock = 100
	log.Emit("exec", "dispatch", "P0", "T1")
	log.Emit("health", "condemn", "P0", "T1", Attr{Key: "target", Value: "P3"})
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("want 1 dump, got %d", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "condemn" || d.Trace != "T1" || d.Peer != "P0" {
		t.Fatalf("dump header wrong: %+v", d)
	}
	if len(d.Events) != 2 {
		t.Fatalf("ring not frozen into dump: %d events", len(d.Events))
	}
}

func TestFlightRecorderShedBurst(t *testing.T) {
	log, fr, clock := recorderOn(t)
	// Two sheds inside a window, the third outside it: no dump.
	*clock = 0
	log.Emit("exec", "shed", "P0", "T1")
	*clock = 500
	log.Emit("exec", "shed", "P0", "T2")
	*clock = 5000
	log.Emit("exec", "shed", "P0", "T3")
	if n := len(fr.Dumps()); n != 0 {
		t.Fatalf("burst fired across the window gap: %d dumps", n)
	}
	// Three within the window: dump.
	*clock = 5100
	log.Emit("exec", "shed", "P0", "T4")
	*clock = 5200
	log.Emit("exec", "shed", "P0", "T5")
	dumps := fr.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "shed-burst" {
		t.Fatalf("want one shed-burst dump, got %+v", dumps)
	}
}

func TestFlightRecorderSlowQuery(t *testing.T) {
	log, fr, clock := recorderOn(t)
	fr.Context = func(trace string) map[string]any {
		return map[string]any{"trace": trace, "ledger": []string{"complete"}}
	}
	emit := func(dur float64, trace string) {
		log.Emit("peer", "query-done", "P0", trace,
			Attr{Key: "durMs", Value: strconv.FormatFloat(dur, 'g', -1, 64)})
	}
	*clock = 10
	for i := 1; i <= slowMinSamples; i++ { // primed after the last
		emit(10, "T"+strconv.Itoa(i))
	}
	emit(25, "T6") // 2.5× the mean: under slowFactor
	if len(fr.Dumps()) != 0 {
		t.Fatal("trigger fired below the slow factor")
	}
	emit(100, "T7") // ~8× the mean
	dumps := fr.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "slow-query" || dumps[0].Trace != "T7" {
		t.Fatalf("want slow-query dump for T7, got %+v", dumps)
	}
	if dumps[0].Context["trace"] != "T7" {
		t.Fatalf("context callback not applied: %+v", dumps[0].Context)
	}
}

func TestFlightRecorderPeerFilterAndRing(t *testing.T) {
	log, fr, _ := recorderOn(t)
	log.Emit("exec", "dispatch", "OTHER", "T0") // filtered out
	for i := 1; i <= recorderRing+1; i++ {
		log.Emit("exec", "dispatch", "P0", "T"+strconv.Itoa(i))
	}
	fr.TriggerDump("manual", "", 99)
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("want 1 dump, got %d", len(dumps))
	}
	evs := dumps[0].Events
	if len(evs) != recorderRing {
		t.Fatalf("ring not bounded: %d events", len(evs))
	}
	for _, ev := range evs {
		if ev.Peer != "P0" {
			t.Fatalf("foreign peer leaked into ring: %+v", ev)
		}
		if ev.Trace == "T1" {
			t.Fatalf("oldest event should have been evicted: %+v", ev)
		}
	}
}

func TestFlightRecorderMaxDumps(t *testing.T) {
	_, fr, _ := recorderOn(t)
	for i := 0; i <= recorderMaxDumps; i++ {
		fr.TriggerDump("d"+strconv.Itoa(i), "", float64(i))
	}
	dumps := fr.Dumps()
	if len(dumps) != recorderMaxDumps || dumps[0].Reason != "d1" || dumps[len(dumps)-1].Reason != "d"+strconv.Itoa(recorderMaxDumps) {
		t.Fatalf("dump retention wrong: %d dumps, first %q", len(dumps), dumps[0].Reason)
	}
}

func TestSLOEvaluator(t *testing.T) {
	clock := 0.0
	reg := NewRegistry()
	lat := reg.Histogram("peer_query_latency_ms", L("peer", "P0"))
	bad := reg.Counter("exec_partial_answers_total", L("peer", "P0"))
	total := reg.Counter("peer_queries_total", L("peer", "P0"))

	rules := []SLORule{
		{Name: "latency-p99", Kind: "quantile", Metric: "peer_query_latency_ms", Q: 0.99, Threshold: 200},
		{Name: "completeness", Kind: "ratio", Bad: "exec_partial_answers_total",
			Total: "peer_queries_total", Budget: 0.1, Burn: 1, WindowMS: 1000},
	}
	ev := NewSLOEvaluator(reg, func() float64 { return clock }, rules)
	var alerts []Alert
	ev.OnAlert = func(a Alert) { alerts = append(alerts, a) }

	// Healthy: fast queries, all complete.
	for i := 0; i < 20; i++ {
		lat.Observe(10)
		total.Inc()
	}
	if fired := ev.Eval(); len(fired) != 0 {
		t.Fatalf("healthy state fired %+v", fired)
	}

	// Latency blowout: p99 over threshold.
	for i := 0; i < 50; i++ {
		lat.Observe(900)
	}
	clock = 500
	fired := ev.Eval()
	if len(fired) != 1 || fired[0].Rule != "latency-p99" {
		t.Fatalf("want latency-p99 alert, got %+v", fired)
	}
	if fired[0].Burn <= 1 {
		t.Fatalf("burn should exceed 1: %+v", fired[0])
	}

	// Completeness burn: 5 of the next 10 queries partial.
	clock = 1600 // move past the old window
	ev.Eval()    // baseline sample at the new window
	for i := 0; i < 10; i++ {
		total.Inc()
	}
	bad.Add(5)
	clock = 2000
	fired = ev.Eval()
	var got *Alert
	for i := range fired {
		if fired[i].Rule == "completeness" {
			got = &fired[i]
		}
	}
	if got == nil {
		t.Fatalf("want completeness alert, got %+v", fired)
	}
	if got.Value < 0.4 || got.Value > 0.6 {
		t.Fatalf("windowed bad fraction %g, want ~0.5", got.Value)
	}
	if len(alerts) == 0 {
		t.Fatal("OnAlert hook not called")
	}
}

func TestSLOEvaluatorNilSafe(t *testing.T) {
	var e *SLOEvaluator
	if e.Eval() != nil || e.Alerts() != nil || e.Rules() != nil {
		t.Fatal("nil evaluator should be inert")
	}
	if e.String() == "" {
		t.Fatal("nil evaluator String should render")
	}
}
