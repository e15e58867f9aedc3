// Package debugsrv is the live operations surface: a plain net/http
// listener exposing the obs registry in Prometheus text format plus the
// /debug endpoints (event log, flight-recorder dumps, SLO state) and
// net/http/pprof's live profiles under /debug/pprof/. It is
// the one deliberately wall-clock-adjacent corner of the middleware —
// serving HTTP to a human operator is real-time by nature — so the wall
// clock is confined to a two-function shim below (the SetRealLatency
// idiom), the deterministic core never imports this package, and nothing
// served here feeds back into query results.
package debugsrv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"sqpeer/internal/obs"
)

// Server serves the operations endpoints for one process's peers. All
// fields are set before Start and never mutated afterwards.
type Server struct {
	// Registry backs /metrics (required).
	Registry *obs.Registry
	// Events backs /debug/events (optional; 404-less empty output when nil).
	Events *obs.EventLog
	// Recorders back /debug/flightrec, typically one per local peer.
	Recorders []*obs.FlightRecorder
	// SLO backs /debug/slo (optional).
	SLO *obs.SLOEvaluator

	ln    net.Listener
	start wallStart
}

// wallStart is the confined wall-clock anchor for /healthz uptime.
type wallStart struct{ t time.Time }

// newWallStart reads the wall clock once, at listener start.
func newWallStart() wallStart {
	//lint:allow walltime the debug listener's uptime anchor: operator-facing wall time, never feeds results
	return wallStart{t: time.Now()}
}

// uptimeSeconds is the paired elapsed read.
func (w wallStart) uptimeSeconds() float64 {
	//lint:allow walltime paired elapsed read for newWallStart
	return time.Since(w.t).Seconds()
}

// Start binds addr (e.g. "127.0.0.1:6060"; ":0" picks a free port) and
// serves in a background goroutine until Stop. Returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	if s.Registry == nil {
		return "", fmt.Errorf("debugsrv: Registry is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debugsrv: %w", err)
	}
	s.ln = ln
	s.start = newWallStart()
	srv := &http.Server{Handler: s.mux()}
	go func() {
		// Serve returns net.ErrClosed after Stop; nothing to report.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Stop closes the listener; in-flight responses finish on their own.
func (s *Server) Stop() {
	if s.ln != nil {
		_ = s.ln.Close()
	}
}

// mux wires the endpoint table.
func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/metrics", s.handleMetrics)
	m.HandleFunc("/healthz", s.handleHealthz)
	m.HandleFunc("/debug/events", s.handleEvents)
	m.HandleFunc("/debug/flightrec", s.handleFlightRec)
	m.HandleFunc("/debug/slo", s.handleSLO)
	// Live profiles, on this mux only (importing net/http/pprof also
	// adds them to http.DefaultServeMux, which nothing here serves).
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.Handle("/debug/pprof/heap", pprof.Handler("heap"))
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.Registry.PromText())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime_seconds=%.1f\n", s.start.uptimeSeconds())
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Write(s.Events.JSONL())
}

func (s *Server) handleFlightRec(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var dumps []obs.Dump
	for _, fr := range s.Recorders {
		dumps = append(dumps, fr.Dumps()...)
	}
	if dumps == nil {
		dumps = []obs.Dump{}
	}
	blob, err := json.MarshalIndent(dumps, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(blob)
	w.Write([]byte("\n"))
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.SLO.String())
	if s.SLO == nil {
		return
	}
	alerts := s.SLO.Alerts()
	if len(alerts) == 0 {
		return
	}
	blob, err := json.MarshalIndent(alerts, "", "  ")
	if err != nil {
		return
	}
	w.Write(blob)
	w.Write([]byte("\n"))
}
