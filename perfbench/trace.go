package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sqpeer/internal/exec"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rql"
)

// span is one timed call into a layer: wall offsets from the tracer's
// start, CPU time, the span that caused it and the script operation it
// served (0 for set-up).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Peer   string `json:"peer,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	CPU    int64  `json:"cpuNs"`
	Rows   int    `json:"rows,omitempty"`
}

// tracer records spans in memory. Spans opened on the client goroutine
// nest through a stack and measure process CPU; scan spans, which run
// on the engine's goroutines, hang off the innermost open span and
// measure their own thread's CPU.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	stack []int
	op    int
	// rowScans counts scans that took the row path: the wrapper must
	// keep the engine on the batch path it would take unwrapped.
	rowScans int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn as a span named name under the innermost open span.
func (t *tracer) do(name string, fn func()) {
	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	t.mu.Unlock()

	c0 := processCPU()
	fn()
	cpu := processCPU() - c0

	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.CPU = int64(time.Since(t.t0)), int64(cpu)
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// scan times one local scan on the calling goroutine's OS thread.
func (t *tracer) scan(peer pattern.PeerID, fn func() int) {
	runtime.LockOSThread()
	w0, c0 := time.Since(t.t0), threadCPU()
	rows := fn()
	cpu, w1 := threadCPU()-c0, time.Since(t.t0)
	runtime.UnlockOSThread()

	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: "rdf.scan",
		Peer: string(peer), Start: int64(w0), End: int64(w1), CPU: int64(cpu), Rows: rows})
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchLocal is what a peer's local source offers the engine: the row
// path and the columnar path.
type batchLocal interface {
	exec.LocalSource
	exec.BatchSource
}

// timedSource wraps a peer's Engine.Local. It implements both paths, so
// the engine keeps the batch path it takes on the unwrapped source.
type timedSource struct {
	inner batchLocal
	peer  pattern.PeerID
	tr    *tracer
}

var _ batchLocal = timedSource{}

func (s timedSource) EvalScan(pats []pattern.PathPattern) *rql.ResultSet {
	var rs *rql.ResultSet
	s.tr.scan(s.peer, func() int { rs = s.inner.EvalScan(pats); return rs.Len() })
	s.tr.mu.Lock()
	s.tr.rowScans++
	s.tr.mu.Unlock()
	return rs
}

func (s timedSource) EvalScanBatch(pats []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	var b *rql.Batch
	s.tr.scan(s.peer, func() int { b = s.inner.EvalScanBatch(pats, store); return b.Len() })
	return b
}

// wrapLocal installs the timing wrapper on an engine.
func wrapLocal(e *exec.Engine, id pattern.PeerID, tr *tracer) error {
	inner, ok := e.Local.(batchLocal)
	if !ok {
		return fmt.Errorf("peer %s: local source %T is not a batch source", id, e.Local)
	}
	e.Local = timedSource{inner: inner, peer: id, tr: tr}
	return nil
}

// kindTap is the network injector the traced run installs: it passes
// each delivery to the workload's fault injector, if any, and counts
// the bytes it sees per message kind. It sees each inter-node leg once;
// the network's own counters also count self-deliveries and a
// duplicated delivery twice.
type kindTap struct {
	inner network.Injector

	mu    sync.Mutex
	bytes map[string]int
}

func newKindTap(inner network.Injector) *kindTap {
	return &kindTap{inner: inner, bytes: map[string]int{}}
}

func (k *kindTap) Intercept(m network.Message) network.Fault {
	var f network.Fault
	if k.inner != nil {
		f = k.inner.Intercept(m)
	}
	k.mu.Lock()
	k.bytes[m.Kind] += m.Size()
	k.mu.Unlock()
	return f
}

// snapshot copies the per-kind byte counts.
func (k *kindTap) snapshot() map[string]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]int, len(k.bytes))
	for kind, n := range k.bytes {
		out[kind] = n
	}
	return out
}
