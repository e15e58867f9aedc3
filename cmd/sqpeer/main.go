// Command sqpeer is a workbench for the SQPeer middleware: it builds a
// SON over synthetic peer bases (or the paper's Figure-2 fixture), runs
// RQL queries against it, and prints the routing annotation, the raw and
// optimized plans, the answer, and the network traffic the query cost.
//
// Usage:
//
//	sqpeer -mode paper -query "<RQL>"          # Figure-2 peers P1..P4
//	sqpeer -mode hybrid -peers 20 -dist vertical -chains 10
//	sqpeer -mode adhoc  -peers 20 -dist mixed
//	sqpeer -mode flood  -peers 20 -ttl 5
//	sqpeer -parse-only -query "<RQL>"          # just show the pattern
//
// Without -query, the chain query over the synthetic schema (or the
// paper's Figure-1 query in paper mode) is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"sqpeer/internal/debugsrv"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

func main() {
	var (
		mode       = flag.String("mode", "paper", "paper | hybrid | adhoc | flood")
		query      = flag.String("query", "", "RQL query text (defaults per mode)")
		peers      = flag.Int("peers", 12, "number of peers (synthetic modes)")
		chains     = flag.Int("chains", 8, "instance chains (synthetic modes)")
		distName   = flag.String("dist", "vertical", "vertical | horizontal | mixed")
		props      = flag.Int("props", 4, "schema chain length (synthetic modes)")
		qlen       = flag.Int("qlen", 3, "query chain length (synthetic modes)")
		ttl        = flag.Int("ttl", 5, "flooding TTL")
		parseOnly  = flag.Bool("parse-only", false, "only parse and show the query pattern")
		verbose    = flag.Bool("v", false, "print plans and annotations")
		schemaFile = flag.String("schema-file", "", "text-format schema file (custom mode)")
		dataFiles  = flag.String("data", "", "comma-separated N-Triples base files, one peer each (custom mode)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug endpoints on this address after the query and wait for interrupt (paper and custom modes)")
	)
	flag.Parse()

	if *schemaFile != "" {
		if err := runCustom(*schemaFile, *dataFiles, *query, *verbose, *debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "sqpeer:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*mode, *query, *peers, *chains, *distName, *props, *qlen, *ttl, *parseOnly, *verbose, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "sqpeer:", err)
		os.Exit(1)
	}
}

// opsPlane bundles the live operations plane the -debug-addr flag turns
// on: a shared metrics registry, the unified event log (stamped by the
// simulated network's logical clock), one tracer for the query root, and
// a flight recorder per peer — served over HTTP after the query runs.
type opsPlane struct {
	addr   string
	reg    *obs.Registry
	events *obs.EventLog
	tracer *obs.Tracer
	clock  func() float64
	recs   []*obs.FlightRecorder
}

func newOpsPlane(net *network.Network, addr string) *opsPlane {
	if addr == "" {
		return nil
	}
	return &opsPlane{
		addr:   addr,
		reg:    obs.NewRegistry(),
		events: obs.NewEventLog(net.NowMS),
		tracer: obs.NewTracer(),
		clock:  net.NowMS,
	}
}

// configure decorates a peer config with the plane's shared pieces (a
// no-op on a nil plane).
func (o *opsPlane) configure(cfg peer.Config) peer.Config {
	if o == nil {
		return cfg
	}
	cfg.Obs, cfg.Events, cfg.Tracer = o.reg, o.events, o.tracer
	cfg.FlightRec = true
	return cfg
}

// adopt collects a constructed peer's flight recorder for /debug/flightrec.
func (o *opsPlane) adopt(p *peer.Peer) {
	if o == nil || p.Recorder == nil {
		return
	}
	o.recs = append(o.recs, p.Recorder)
}

// serve evaluates the SLO rules once over the finished run, starts the
// debug listener and blocks until interrupted.
func (o *opsPlane) serve() error {
	if o == nil {
		return nil
	}
	slo := obs.NewSLOEvaluator(o.reg, o.clock, nil)
	// Adoption order follows peer construction (map order in the
	// fully-connected fixture), so pick the dump target by sorted peer
	// ID: the root peer — lowest ID — carries the query-scoped context.
	sort.Slice(o.recs, func(i, j int) bool { return o.recs[i].PeerID() < o.recs[j].PeerID() })
	if len(o.recs) > 0 {
		root := o.recs[0]
		slo.OnAlert = func(a obs.Alert) { root.TriggerDump("slo:"+a.Rule, "", a.TMS) }
	}
	slo.Eval()
	srv := &debugsrv.Server{Registry: o.reg, Events: o.events, Recorders: o.recs, SLO: slo}
	bound, err := srv.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("\noperations plane on http://%s — try:\n", bound)
	for _, ep := range []string{"/metrics", "/healthz", "/debug/events", "/debug/flightrec", "/debug/slo", "/debug/pprof/"} {
		fmt.Printf("  curl http://%s%s\n", bound, ep)
	}
	fmt.Println("interrupt (ctrl-c) to exit")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	srv.Stop()
	return nil
}

func run(mode, query string, nPeers, chains int, distName string, props, qlen, ttl int, parseOnly, verbose bool, debugAddr string) error {
	var dist gen.Distribution
	switch distName {
	case "vertical":
		dist = gen.Vertical
	case "horizontal":
		dist = gen.Horizontal
	case "mixed":
		dist = gen.Mixed
	default:
		return fmt.Errorf("unknown distribution %q", distName)
	}

	var schema *rdf.Schema
	var bases map[pattern.PeerID]*rdf.Base
	if mode == "paper" {
		schema = gen.PaperSchema()
		bases = gen.PaperBases(chains)
		if query == "" {
			query = gen.PaperRQL
		}
	} else {
		syn := gen.NewSynthetic(props, true)
		schema = syn.Schema
		bases = syn.Bases(nPeers, chains, dist)
		if query == "" {
			query = syn.RQL(1, qlen)
		}
	}

	compiled, err := rql.ParseAndAnalyze(query, schema)
	if err != nil {
		return err
	}
	fmt.Println("query pattern:", compiled.Pattern)
	if parseOnly {
		return nil
	}

	if debugAddr != "" && mode != "paper" {
		return fmt.Errorf("-debug-addr is supported in paper mode (and custom mode via -schema-file)")
	}
	net := network.New()
	switch mode {
	case "paper":
		return runFullyConnected(net, schema, bases, query, compiled, verbose, newOpsPlane(net, debugAddr))
	case "hybrid":
		return runHybrid(net, schema, bases, query, verbose)
	case "adhoc":
		return runAdhoc(net, schema, bases, query)
	case "flood":
		return runFlood(net, schema, bases, query, ttl)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// runFullyConnected wires every peer with full mutual knowledge (the
// paper-fixture mode) and executes at the first peer.
func runFullyConnected(net *network.Network, schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, query string, compiled *rql.Compiled, verbose bool, ops *opsPlane) error {
	var nodes []*peer.Peer
	for id, base := range bases {
		cfg := ops.configure(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: base})
		p, err := peer.New(cfg, net)
		if err != nil {
			return err
		}
		ops.adopt(p)
		nodes = append(nodes, p)
	}
	// Sort so the fallback root (nodes[0] when no P1 exists) does not
	// depend on map iteration order.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	root := nodes[0]
	for _, n := range nodes {
		if n.ID == "P1" {
			root = n
		}
	}
	net.ResetCounters()
	pr, err := root.PlanQuery(compiled.Pattern)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Println("annotation:   ", pr.Annotated)
		fmt.Println("raw plan:     ", pr.Raw)
		fmt.Println("optimized plan:", pr.Optimized)
		fmt.Print(root.Engine.Cost.Explain(pr.Optimized.Root, root.ID))
	}
	rows, err := root.Ask(query)
	if err != nil {
		return err
	}
	printOutcome(rows, nil, net, string(root.ID))
	return ops.serve()
}

func runHybrid(net *network.Network, schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, query string, verbose bool) error {
	h := overlay.NewHybrid(net, schema)
	if _, err := h.AddSuperPeer("SP1"); err != nil {
		return err
	}
	var first pattern.PeerID
	for id, base := range bases {
		if _, err := h.AddSimplePeer(id, base, "SP1"); err != nil {
			return err
		}
		if first == "" || id < first {
			first = id
		}
	}
	net.ResetCounters()
	if verbose {
		p, _ := h.Peer(first)
		c, err := p.Compile(query)
		if err != nil {
			return err
		}
		ann, err := p.RequestRouting("SP1", c.Pattern)
		if err != nil {
			return err
		}
		fmt.Println("super-peer annotation:", ann)
	}
	rows, err := h.Query(first, query)
	if err != nil {
		return err
	}
	printOutcome(rows, nil, net, string(first))
	return nil
}

func runAdhoc(net *network.Network, schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, query string) error {
	a := overlay.NewAdhoc(net, schema)
	// Ring topology: each peer neighbors its predecessor.
	var prev pattern.PeerID
	var first pattern.PeerID
	var ids []pattern.PeerID
	for id := range bases {
		ids = append(ids, id)
	}
	sortPeerIDs(ids)
	for _, id := range ids {
		var nbrs []pattern.PeerID
		if prev != "" {
			nbrs = append(nbrs, prev)
		}
		if _, err := a.AddPeer(id, bases[id], nbrs...); err != nil {
			return err
		}
		if first == "" {
			first = id
		}
		prev = id
	}
	a.Connect(first, prev) // close the ring
	net.ResetCounters()
	res, err := a.Query(first, query, overlay.DefaultTTL)
	if err != nil {
		return err
	}
	printOutcome(res.Rows, &res.Completeness, net, string(first))
	return nil
}

func runFlood(net *network.Network, schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, query string, ttl int) error {
	f := overlay.NewFlooding(net, schema)
	var prev pattern.PeerID
	var first pattern.PeerID
	var ids []pattern.PeerID
	for id := range bases {
		ids = append(ids, id)
	}
	sortPeerIDs(ids)
	for _, id := range ids {
		var nbrs []pattern.PeerID
		if prev != "" {
			nbrs = append(nbrs, prev)
		}
		if _, err := f.AddPeer(id, bases[id], nbrs...); err != nil {
			return err
		}
		if first == "" {
			first = id
		}
		prev = id
	}
	net.ResetCounters()
	res, err := f.Query(first, query, ttl)
	if err != nil {
		return err
	}
	fmt.Printf("flooding reached %d peers\n", res.PeersReached)
	printOutcome(res.Rows, nil, net, string(first))
	return nil
}

// printOutcome prints the answer, its completeness annotation when the
// mode reports one (ad-hoc: complete, or the unanswered patterns and
// why), and the traffic the query cost.
func printOutcome(rows *rql.ResultSet, comp *exec.Completeness, net *network.Network, root string) {
	fmt.Printf("\nanswer at %s:\n%s", root, rows)
	if comp != nil && comp.Complete {
		fmt.Println("completeness: complete")
	} else if comp != nil {
		fmt.Println("completeness: partial, unanswered:")
		for _, u := range comp.Unanswered {
			fmt.Printf("  %s: %s\n", u.PatternID, u.Reason)
		}
	}
	c := net.Counters()
	fmt.Printf("\nnetwork: %d messages, %d bytes, %.1f simulated ms\n",
		c.Messages, c.Bytes, c.SimulatedMS)
}

// runCustom loads a user schema and one base file per peer, wires a
// fully-known SON, and answers the query at the first peer.
func runCustom(schemaFile, dataFiles, query string, verbose bool, debugAddr string) error {
	sf, err := os.Open(schemaFile)
	if err != nil {
		return err
	}
	defer sf.Close()
	schema, err := rdf.ParseSchemaText(sf)
	if err != nil {
		return err
	}
	if dataFiles == "" {
		return fmt.Errorf("custom mode needs -data file1[,file2,...]")
	}
	if query == "" {
		return fmt.Errorf("custom mode needs -query")
	}
	bases := map[pattern.PeerID]*rdf.Base{}
	for i, path := range strings.Split(dataFiles, ",") {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		base, err := rdf.ReadBase(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		bases[pattern.PeerID(fmt.Sprintf("P%d", i+1))] = base
	}
	compiled, err := rql.ParseAndAnalyze(query, schema)
	if err != nil {
		return err
	}
	fmt.Println("query pattern:", compiled.Pattern)
	net := network.New()
	return runFullyConnected(net, schema, bases, query, compiled, verbose, newOpsPlane(net, debugAddr))
}

func sortPeerIDs(ids []pattern.PeerID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
