package debugsrv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sqpeer/internal/obs"
)

// The endpoint smoke test: bind an ephemeral port, scrape every
// endpoint over real HTTP, and assert /metrics is parseable Prometheus
// exposition containing a known counter.
func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("exec_shed_total", obs.L("peer", "P0")).Add(4)
	reg.Histogram("peer_query_latency_ms", obs.L("peer", "P0")).Observe(12)
	log := obs.NewEventLog(func() float64 { return 1 })
	fr := obs.NewFlightRecorder("P0")
	log.AddSink(fr.Observe)
	log.Emit("exec", "shed", "P0", "T1")
	slo := obs.NewSLOEvaluator(reg, func() float64 { return 1 }, nil)

	s := &Server{Registry: reg, Events: log, Recorders: []*obs.FlightRecorder{fr}, SLO: slo}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	samples, err := obs.ParsePromText(metrics)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v\n%s", err, metrics)
	}
	found := false
	for _, smp := range samples {
		if smp.Name == "exec_shed_total" && smp.Value == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("exec_shed_total not in scrape:\n%s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE peer_query_latency_ms histogram") {
		t.Fatalf("histogram family missing from scrape:\n%s", metrics)
	}

	if h := get("/healthz"); !strings.HasPrefix(h, "ok uptime_seconds=") {
		t.Fatalf("healthz: %q", h)
	}

	events := get("/debug/events")
	if !strings.Contains(events, `"component":"exec"`) {
		t.Fatalf("event log missing from /debug/events: %q", events)
	}

	var dumps []obs.Dump
	if err := json.Unmarshal([]byte(get("/debug/flightrec")), &dumps); err != nil {
		t.Fatalf("/debug/flightrec is not JSON: %v", err)
	}

	if sloBody := get("/debug/slo"); !strings.Contains(sloBody, "latency-p99") {
		t.Fatalf("/debug/slo missing default rules: %q", sloBody)
	}

	if index := get("/debug/pprof/"); !strings.Contains(index, "heap") {
		t.Fatalf("/debug/pprof/ does not list the heap profile: %q", index)
	}
	if heap := get("/debug/pprof/heap?debug=1"); !strings.Contains(heap, "heap profile:") {
		t.Fatalf("/debug/pprof/heap is not a heap profile: %.200q", heap)
	}
	if h := get("/debug/pprof/heap"); len(h) == 0 {
		t.Fatal("/debug/pprof/heap served an empty profile")
	}
}

// TestPprofRoutes: every profile endpoint is routed on the listener's
// own mux (the CPU profile and the trace run for seconds, so
// TestEndpoints fetches only the index and the heap).
func TestPprofRoutes(t *testing.T) {
	s := &Server{Registry: obs.NewRegistry()}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if _, pattern := s.mux().Handler(req); pattern == "" || pattern == "/" {
			t.Errorf("%s is not routed on the debug mux (pattern %q)", path, pattern)
		}
	}
}

func TestStartRequiresRegistry(t *testing.T) {
	s := &Server{}
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start without a registry should fail")
	}
}
