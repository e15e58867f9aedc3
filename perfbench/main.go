// Command perfbench is SQPeer's benchmark. It builds a workload's SON
// from a seed, plays a fixed seeded operation script through the public
// API with one closed-loop client, checks every answer against
// centralized evaluation, and prints every metric by name and unit.
// Speed is process CPU time (getrusage user+sys), which excludes the
// time a hypervisor steals; wall-clock figures are printed beside it as
// diagnostics. With --trace 1 it plays the script twice, untraced and
// traced, and reports per-layer figures from the traced run.
//
//	go build -o perfbench . && ./perfbench --workload fanout_small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how many times a run builds its SON; setup_s is their median.
const setups = 3

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the workload's data and script")
	seconds := fs.Int("seconds", 10, "script length, in seconds of CPU the script is sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "directory to write the traced run's spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ops := max(1, int(math.Round(w.opsPerSecond*float64(*seconds))))
	in := makeInputs(w, *seed, ops, w.size)

	var rep *report
	var err error
	if *trace == 0 {
		rep, err = endToEndRun(in, stdout)
	} else {
		rep, err = tracedRun(in, *spans, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport judges the outcome: any wrong answer is incorrect, and so
// is any failed query on a workload without faults.
func newReport(in *inputs, o *outcome) *report {
	correct := o.wrong == 0 && (in.w.hardened || o.failed == 0)
	return &report{Correct: correct, Attempted: o.ops.n(), Failed: o.failed + o.wrong, Metrics: map[string]value{}}
}

func (r *report) put(name, unit string, v float64) { r.Metrics[name] = value{Value: v, Unit: unit} }

// endToEndRun sets the SON up `setups` times, plays the script untraced
// on the last one and reports the end-to-end metrics.
func endToEndRun(in *inputs, stdout io.Writer) (*report, error) {
	want, err := expectations(in)
	if err != nil {
		return nil, err
	}
	var sys *system
	var setupS, heap []float64
	for i := 0; i < setups; i++ {
		sys = nil
		// The previous SON is garbage before the next set-up is timed;
		// what stays live — the inputs and expected answers — is the
		// benchmark's, not the program's, and is left out of the heap.
		before := heapInuse()
		s, err := build(in, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setup.total().Seconds())
		heap = append(heap, (float64(heapInuse())-float64(before))/float64(s.triples))
		sys = s
	}
	o, err := sys.runScript(want)
	if err != nil {
		return nil, err
	}
	diagnostics(stdout, in, o)
	rep := newReport(in, o)
	q := o.queries.n()
	qcpu := o.queries.totalCPU()
	rep.put("setup_s", "s", medianFloat(setupS))
	rep.put("queries_per_cpu_s", "1/s", perSecond(q, qcpu))
	rep.put("query_cpu_p50_ms", "ms", ms(quantile(o.queries.cpu, 0.5)))
	rep.put("rows_per_cpu_s", "1/s", perSecond(o.rows, qcpu))
	rep.put("ops_per_cpu_s", "1/s", perSecond(o.ops.n(), o.ops.totalCPU()))
	rep.put("answer_completeness", "ratio", o.completeness/float64(q))
	rep.put("sim_ms_per_query", "ms", (o.simMS+o.execM.BackoffMS)/float64(q))
	rep.put("msgs_per_query", "count", float64(o.msgs)/float64(q))
	rep.put("wire_bytes_per_query", "bytes", float64(o.bytes)/float64(q))
	rep.put("heap_bytes_per_triple", "bytes", medianFloat(heap))
	return rep, nil
}

// diagnostics prints, beside the gated metrics, what CPU time hides:
// wall-clock rates and the host's steal time over the script.
func diagnostics(w io.Writer, in *inputs, o *outcome) {
	q := o.queries.n()
	fmt.Fprintf(w, "# workload %s seed %d: %d operations, %d queries\n", in.w.name, in.seed, o.ops.n(), q)
	fmt.Fprintf(w, "# wall.queries_per_s %.4g 1/s (queries ÷ wall time of the queries)\n", perSecond(q, sum(o.queries.wall)))
	fmt.Fprintf(w, "# wall.query_p50_ms %.4g ms\n", ms(quantile(o.queries.wall, 0.5)))
	fmt.Fprintf(w, "# host.steal_s %.4g s over a script of %.4g s wall, %.4g s process CPU\n", o.steal, o.wall.Seconds(), o.cpu)
	if p := tailPercentile(q); p > 0 {
		fmt.Fprintf(w, "# query_cpu_p%g_ms %.4g ms over %d samples\n", p, ms(quantile(o.queries.cpu, p/100)), q)
	} else {
		fmt.Fprintf(w, "# no tail percentile: %d query samples leave fewer than 10 beyond p90\n", q)
	}
	fmt.Fprintf(w, "# error_rate %.4g (%d failed + %d wrong of %d queries)\n", errorRate(o), o.failed, o.wrong, q)
	if n := o.byKind[opJoin].n(); n > 0 {
		fmt.Fprintf(w, "# join_cpu_ms %.4g ms over %d joins\n", ms(quantile(o.byKind[opJoin].cpu, 0.5)), n)
	}
	if n := o.byKind[opUpdate].n(); n > 0 {
		fmt.Fprintf(w, "# update_cpu_ms %.4g ms over %d updates\n", ms(quantile(o.byKind[opUpdate].cpu, 0.5)), n)
	}
	if o.ops.n() > q {
		fmt.Fprintf(w, "# queries take %.1f%% of the script's operation CPU\n", 100*o.queries.totalCPU().Seconds()/o.ops.totalCPU().Seconds())
	}
	if o.firstError != "" {
		fmt.Fprintf(w, "# first error: %s\n", o.firstError)
	}
}

// p90 is the p90 per-query CPU in ms, or 0 when fewer than 10 samples
// lie beyond it.
func p90(o *outcome) float64 {
	if tailPercentile(o.queries.n()) < 90 {
		return 0
	}
	return ms(quantile(o.queries.cpu, 0.9))
}

func errorRate(o *outcome) float64 {
	return float64(o.failed+o.wrong) / float64(o.queries.n())
}

// tracedRun plays the script untraced, then again on a fresh SON with
// every layer traced, checks that tracing changed nothing the program
// did, and reports the per-layer metrics.
func tracedRun(in *inputs, spanDir string, stdout io.Writer) (*report, error) {
	want, err := expectations(in)
	if err != nil {
		return nil, err
	}
	plain, err := build(in, nil)
	if err != nil {
		return nil, err
	}
	base, err := plain.runScript(want)
	if err != nil {
		return nil, err
	}
	plain = nil
	runtime.GC()

	tr := newTracer()
	sys, err := build(in, tr)
	if err != nil {
		return nil, err
	}
	traced, err := sys.runScript(want)
	if err != nil {
		return nil, err
	}
	diagnostics(stdout, in, base)
	if spanDir != "" {
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", in.w.name, in.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	lay := analyze(tr)
	if err := selfCheck(base, traced, tr, lay); err != nil {
		return nil, fmt.Errorf("traced-run self-check failed: %w", err)
	}
	rep := newReport(in, base)
	if !newReport(in, traced).Correct {
		rep.Correct = false
	}
	layerMetrics(rep, sys, base, traced, lay)
	return rep, nil
}

// layers are the traced run's per-layer totals.
type layers struct {
	queries                                 int
	parse, route, plan, optimize, execute   time.Duration
	finish                                  time.Duration
	scan                                    time.Duration
	scanRows, sitesScanned, sitesUseful     int
	add                                     time.Duration
	newPeer, refresh, push, remove          sampler
	setupIngest, setupPeers, setupAdvertise time.Duration
	// worstCoverage is the lowest share of a query span's wall time its
	// layer spans cover; queryCPU and layerCPU sum the CPU of the query
	// spans and of their layer spans over the script.
	worstCoverage      float64
	queryCPU, layerCPU time.Duration
	minSelf            time.Duration
}

// layerSpans are the spans a query splits into: the calls
// Peer.AskAnnotatedAs makes.
var layerSpans = map[string]bool{"parse": true, "route": true, "plan": true, "optimize": true, "execute": true, "finish": true}

// analyze folds the spans into per-layer totals, per query and per
// operation.
func analyze(tr *tracer) *layers {
	l := &layers{worstCoverage: 1, minSelf: math.MaxInt64}
	byOp := map[int][]span{}
	for _, s := range tr.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for op, spans := range byOp {
		if op == 0 {
			for _, s := range spans {
				switch s.Name {
				case "setup.ingest":
					l.setupIngest += time.Duration(s.CPU)
				case "setup.peers":
					l.setupPeers += time.Duration(s.CPU)
				case "setup.advertise":
					l.setupAdvertise += time.Duration(s.CPU)
				}
			}
			continue
		}
		var query, children, execute, scan time.Duration
		var queryWall, childrenWall time.Duration
		isQuery, execID := false, -1
		sites, useful := map[string]bool{}, map[string]bool{}
		for _, s := range spans {
			d := time.Duration(s.CPU)
			if layerSpans[s.Name] {
				children += d
				childrenWall += time.Duration(s.End - s.Start)
			}
			switch s.Name {
			case "query":
				isQuery, query, queryWall = true, d, time.Duration(s.End-s.Start)
			case "parse":
				l.parse += d
			case "route":
				l.route += d
			case "plan":
				l.plan += d
			case "optimize":
				l.optimize += d
			case "execute":
				l.execute += d
				execute, execID = d, s.ID
			case "finish":
				l.finish += d
			case "rdf.add":
				l.add += d
			case "peer.new":
				l.newPeer.add(d, time.Duration(s.End-s.Start))
			case "peer.refresh_adv":
				l.refresh.add(d, time.Duration(s.End-s.Start))
			case "peer.push_adv":
				l.push.add(d, time.Duration(s.End-s.Start))
			case "peer.depart":
				l.remove.add(d, time.Duration(s.End-s.Start))
			}
		}
		for _, s := range spans {
			if s.Name != "rdf.scan" || s.Parent != execID {
				continue
			}
			scan += time.Duration(s.CPU)
			l.scanRows += s.Rows
			if !sites[s.Peer] {
				sites[s.Peer] = true
				l.sitesScanned++
			}
			if s.Rows > 0 && !useful[s.Peer] {
				useful[s.Peer] = true
				l.sitesUseful++
			}
		}
		if !isQuery {
			continue
		}
		l.queries++
		l.scan += scan
		l.queryCPU += query
		l.layerCPU += children
		if queryWall > 0 {
			l.worstCoverage = math.Min(l.worstCoverage, float64(childrenWall)/float64(queryWall))
		}
		if self := execute - scan; self < l.minSelf {
			l.minSelf = self
		}
	}
	return l
}

// wireBytesSlack is how far wire bytes may differ between two runs of
// one script. Scans emit rows in map iteration order, which the Go
// runtime randomizes, so the batch codec's per-frame dictionaries — and
// a large answer's byte count — differ by a few bytes per million from
// run to run. Tracing that changed what the program ships (the row
// path, say) moves bytes by far more.
const wireBytesSlack = 1e-4

// selfCheck fails when the traced run cannot be trusted: its layer
// spans leave part of a query unaccounted, its scan time exceeds the
// execution that contains it, a scan left the batch path, or tracing
// changed what the program shipped.
//
// Coverage is checked per query in wall time and over the script in
// CPU. Process CPU cannot be checked per query: getrusage brings the
// other threads' CPU up to date only at their scheduler events, so a
// reading lags by up to a few milliseconds, and a lag that catches up
// between two layer spans lands outside both. One fanout_small query in
// about a thousand reads ~93% CPU coverage over layer spans whose gaps
// total a few microseconds of wall time.
func selfCheck(base, traced *outcome, tr *tracer, l *layers) error {
	var errs []string
	if l.queries == 0 {
		errs = append(errs, "no traced query")
	}
	if l.worstCoverage < 0.95 {
		errs = append(errs, fmt.Sprintf("parse+route+plan+optimize+execute+finish cover only %.1f%% of a query span's wall time", 100*l.worstCoverage))
	}
	if l.queryCPU > 0 && float64(l.layerCPU) < 0.95*float64(l.queryCPU) {
		errs = append(errs, fmt.Sprintf("parse+route+plan+optimize+execute+finish cover only %.1f%% of the queries' CPU", 100*float64(l.layerCPU)/float64(l.queryCPU)))
	}
	if l.queries > 0 && l.minSelf < 0 {
		errs = append(errs, fmt.Sprintf("exec.self_ms negative (%.3f ms)", ms(l.minSelf)))
	}
	if tr.rowScans > 0 {
		errs = append(errs, fmt.Sprintf("%d scans took the row path under the wrapper", tr.rowScans))
	}
	if base.execM.RowsShipped != traced.execM.RowsShipped {
		errs = append(errs, fmt.Sprintf("exec.rows_shipped %d untraced vs %d traced", base.execM.RowsShipped, traced.execM.RowsShipped))
	}
	if base.msgs != traced.msgs || math.Abs(float64(base.bytes-traced.bytes)) > wireBytesSlack*float64(base.bytes) {
		errs = append(errs, fmt.Sprintf("query traffic %d msgs / %d bytes untraced vs %d / %d traced", base.msgs, base.bytes, traced.msgs, traced.bytes))
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// messageKinds are the message kinds a query sends; each gets a
// per-query message and byte count.
var messageKinds = []string{"query.route", "query.route.reply", "chan.open", "chan.open.reply",
	"exec.subplan", "chan.packet", "chan.close"}

// layerMetrics fills the per-layer report. Per-query figures divide by
// the script's queries; CPU timings come from the traced run, rates and
// distributions of the untraced one.
func layerMetrics(rep *report, sys *system, base, traced *outcome, l *layers) {
	q := float64(max(1, l.queries))
	perQ := func(d time.Duration) float64 { return float64(d) / q }
	rep.put("rql.parse_us", "us", us(time.Duration(perQ(l.parse))))
	rep.put("routing.route_us", "us", us(time.Duration(perQ(l.route))))
	var cmp, ann, subplans int
	for _, qs := range traced.qstats {
		cmp += qs.comparisons
		ann += qs.annotated
		subplans += qs.subplans
	}
	rep.put("routing.comparisons", "count", float64(cmp)/q)
	rep.put("routing.peers_annotated", "count", float64(ann)/q)
	rep.put("routing.useful_site_ratio", "ratio", ratio(l.sitesUseful, l.sitesScanned))
	rep.put("rql.finish_us", "us", us(time.Duration(perQ(l.finish))))
	rep.put("plan.generate_us", "us", us(time.Duration(perQ(l.plan))))
	rep.put("optimizer.optimize_us", "us", us(time.Duration(perQ(l.optimize))))
	rep.put("optimizer.subplans", "count", float64(subplans)/q)
	rep.put("exec.execute_ms", "ms", ms(time.Duration(perQ(l.execute))))
	rep.put("exec.self_ms", "ms", ms(time.Duration(perQ(l.execute-l.scan))))
	m := traced.execM
	rep.put("exec.subplans_shipped", "count", float64(m.SubplansShipped)/q)
	rep.put("exec.rows_shipped", "count", float64(m.RowsShipped)/q)
	rep.put("exec.answer_per_shipped_row", "ratio", ratio(traced.rows, m.RowsShipped))
	rep.put("exec.retries", "count", float64(m.Retries)/q)
	rep.put("exec.migrations", "count", float64(m.Migrations)/q)
	rep.put("exec.replans", "count", float64(m.Replans)/q)
	rep.put("exec.rows_refetched", "count", float64(m.RowsRefetched)/q)
	rep.put("exec.rows_retained", "count", float64(m.RowsRetained)/q)
	rep.put("exec.partial_answers", "count", float64(m.PartialAnswers)/q)
	rep.put("rdf.scan_ms", "ms", ms(time.Duration(perQ(l.scan))))
	rep.put("rdf.scan_rows", "count", float64(l.scanRows)/q)
	rep.put("rdf.scan_us_per_row", "us", ratio(int(us(l.scan)*1000), l.scanRows)/1000)
	rep.put("rdf.add_us_per_triple", "us", us(l.setupIngest+l.add)/float64(sys.adds))
	rep.put("peer.new_ms", "ms", ms(quantile(l.newPeer.cpu, 0.5)))
	rep.put("peer.refresh_adv_ms", "ms", ms(quantile(l.refresh.cpu, 0.5)))
	rep.put("peer.push_adv_ms", "ms", ms(quantile(l.push.cpu, 0.5)))
	rep.put("overlay.remove_us", "us", us(time.Duration(float64(l.remove.totalCPU())/float64(max(1, l.remove.n())))))
	rep.put("setup.ingest_s", "s", l.setupIngest.Seconds())
	rep.put("setup.peers_s", "s", l.setupPeers.Seconds())
	rep.put("setup.advertise_s", "s", l.setupAdvertise.Seconds())
	rep.put("channel.packets", "count", float64(traced.chanM.PacketsSent)/q)
	rep.put("channel.payload_bytes", "bytes", float64(traced.chanM.PayloadBytesSent)/q)
	rep.put("channel.dedupe_drops", "count", float64(traced.chanM.PacketsDuplicate)/q)
	for _, kind := range messageKinds {
		rep.put("network.msgs."+kind, "count", float64(traced.perKindMsgs[kind])/q)
		rep.put("network.bytes."+kind, "bytes", float64(traced.kindBytes[kind])/q)
	}
	rep.put("faults.dropped", "count", float64(traced.injM.Dropped))
	rep.put("faults.delayed", "count", float64(traced.injM.Delayed))
	rep.put("faults.duplicated", "count", float64(traced.injM.Duplicated))
	bq := float64(base.queries.n())
	rep.put("runtime.allocs_per_query", "count", float64(base.mallocs)/bq)
	rep.put("runtime.alloc_bytes_per_query", "bytes", float64(base.alloced)/bq)
	rep.put("runtime.gc_cycles_per_query", "count", float64(base.gcs)/bq)
	rep.put("runtime.gc_cpu_fraction", "ratio", base.gcCPU/base.cpu)
	rep.put("query_cpu_p90_ms", "ms", p90(base))
	rep.put("query.samples", "count", bq)
	rep.put("join_cpu_ms", "ms", ms(quantile(base.byKind[opJoin].cpu, 0.5)))
	rep.put("update_cpu_ms", "ms", ms(quantile(base.byKind[opUpdate].cpu, 0.5)))
	rep.put("error_rate", "ratio", errorRate(base))
	rep.put("wall.queries_per_s", "1/s", perSecond(base.queries.n(), sum(base.queries.wall)))
	rep.put("wall.query_p50_ms", "ms", ms(quantile(base.queries.wall, 0.5)))
	rep.put("host.steal_s", "s", base.steal)
	untraced := ms(quantile(base.queries.cpu, 0.5))
	rep.put("trace.overhead_pct", "%", 100*(ms(quantile(traced.queries.cpu, 0.5))/untraced-1))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
