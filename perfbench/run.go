package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
)

// inputs are everything a run feeds the program, made from the seed
// before any timing starts.
type inputs struct {
	w       *workload
	seed    int64
	syn     *gen.Synthetic
	data    map[pattern.PeerID][]rdf.Triple
	sharing []pattern.PeerID // sorted
	script  []op
}

func makeInputs(w *workload, seed int64, ops int, size scale) *inputs {
	syn := gen.NewSynthetic(chainProps, true)
	data := mixedData(syn, seed, size)
	sharing := make([]pattern.PeerID, 0, len(data))
	for id := range data {
		sharing = append(sharing, id)
	}
	sort.Slice(sharing, func(i, j int) bool { return sharing[i] < sharing[j] })
	return &inputs{w: w, seed: seed, syn: syn, data: data, sharing: sharing,
		script: w.script(seed, ops, chainProps, sharing, size)}
}

// setupTimes is the CPU one set-up spent per phase.
type setupTimes struct{ ingest, peers, advertise time.Duration }

func (s setupTimes) total() time.Duration { return s.ingest + s.peers + s.advertise }

// system is one built SON and the benchmark's handles on it.
type system struct {
	in      *inputs
	net     *network.Network
	client  *peer.Peer
	router  *routing.Router // the super-peer's router, which answers the client's routing
	sharing map[pattern.PeerID]*peer.Peer
	// departed sums the channel counters of the peers that left, so
	// that the benchmark holds no departed peer in memory.
	departed channel.ManagerStats
	inj      *faults.Injector
	tap      *kindTap // traced runs only
	tr       *tracer  // nil in untraced runs
	triples  int      // loaded at set-up
	adds     int      // Base.Add calls the benchmark made
	setup    setupTimes
}

// layer runs fn as a traced span, or just runs it when untraced: both
// runs make exactly the same calls into the program.
func (s *system) layer(name string, fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	s.tr.do(name, fn)
}

// build sets the SON up from empty: ingest every base with Base.Add,
// start every peer with peer.New, and push each advertisement to the
// super-peer — the calls overlay.Hybrid.AddSimplePeer makes, split so
// each phase is timed.
func build(in *inputs, tr *tracer) (*system, error) {
	w := in.w
	s := &system{in: in, tr: tr, sharing: map[pattern.PeerID]*peer.Peer{}}
	var err error

	c0 := processCPU()
	bases := make(map[pattern.PeerID]*rdf.Base, len(in.sharing))
	s.layer("setup.ingest", func() {
		for _, id := range in.sharing {
			b := rdf.NewBase()
			for _, t := range in.data[id] {
				b.Add(t)
			}
			bases[id] = b
			s.adds += len(in.data[id])
		}
	})
	c1 := processCPU()
	s.layer("setup.peers", func() {
		s.net = network.New()
		var sp *peer.Peer
		if sp, err = overlay.NewHybrid(s.net, in.syn.Schema).AddSuperPeer(superID); err != nil {
			return
		}
		s.router = sp.Router
		for _, id := range in.sharing {
			var p *peer.Peer
			if p, err = peer.New(w.peerConfig(id, in.syn, bases[id]), s.net); err != nil {
				return
			}
			s.sharing[id] = p
		}
		s.client, err = peer.New(w.peerConfig(clientID, in.syn, nil), s.net)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	c2 := processCPU()
	s.layer("setup.advertise", func() {
		for _, id := range in.sharing {
			p := s.sharing[id]
			p.Super = superID
			if err = p.PushAdvertisement(superID); err != nil {
				return
			}
		}
		s.client.Super = superID
		err = s.client.PushAdvertisement(superID)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	c3 := processCPU()
	s.setup.ingest, s.setup.peers, s.setup.advertise = c1-c0, c2-c1, c3-c2
	for _, b := range bases {
		s.triples += b.Len()
	}

	// Instrumentation and faults go in once the SON stands.
	var inj network.Injector
	if w.hardened {
		s.inj = faults.NewInjector(in.seed, faultRates)
		s.inj.Exempt(controlKinds...)
		inj = s.inj
	}
	if tr != nil {
		s.tap = newKindTap(inj)
		inj = s.tap
		for _, id := range in.sharing {
			if err := wrapLocal(s.sharing[id].Engine, id, tr); err != nil {
				return nil, err
			}
		}
	}
	if inj != nil {
		s.net.SetInjector(inj)
	}
	return s, nil
}

// queryStats are the traced run's per-query counts.
type queryStats struct {
	subplans    int
	comparisons int
	annotated   int
}

// asked is what a traced query leaves for counting after its spans end.
type asked struct {
	pattern *pattern.QueryPattern
	plan    *plan.Plan
}

// ask answers one query. Untraced, it is Peer.AskAnnotated. Traced, it
// makes the same calls Peer.AskAnnotatedAs makes, one span each.
func (s *system) ask(text string) (*exec.Result, asked, error) {
	if s.tr == nil {
		res, err := s.client.AskAnnotated(text)
		return res, asked{}, err
	}
	var (
		c   *rql.Compiled
		ann *pattern.Annotated
		pl  *plan.Plan
		opt *plan.Plan
		res *exec.Result
		err error
	)
	s.layer("parse", func() { c, err = s.client.Compile(text) })
	if err != nil {
		return nil, asked{}, err
	}
	s.layer("route", func() { ann, err = s.client.RequestRouting(superID, c.Pattern) })
	if err != nil {
		return nil, asked{}, err
	}
	s.layer("plan", func() { pl, err = plan.Generate(ann) })
	if err != nil {
		return nil, asked{}, err
	}
	s.layer("optimize", func() { opt = optimizer.Optimize(pl, optimizer.Options{}) })
	s.layer("execute", func() { res, err = s.client.Engine.ExecuteAnnotated(opt) })
	if err != nil {
		return nil, asked{}, err
	}
	s.layer("finish", func() {
		var filtered *rql.ResultSet
		if filtered, err = rql.ApplyFilters(res.Rows, c.Query.Where); err == nil {
			res.Rows = filtered.Project(c.Pattern.Projections).Limit(c.Query.Limit)
		}
	})
	return res, asked{pattern: c.Pattern, plan: opt}, err
}

// count derives a traced query's counts, outside every span: the work
// the answering router does for the pattern, and the plan's subplans.
func (s *system) count(a asked) queryStats {
	_, st := s.router.RouteWithStats(a.pattern)
	return queryStats{subplans: plan.CountSubplans(a.plan.Root), comparisons: st.Comparisons, annotated: st.Annotations}
}

// outcome accumulates one script run.
type outcome struct {
	queries, ops     sampler
	byKind           [4]sampler
	rows             int
	simMS            float64
	msgs, bytes      int
	perKindMsgs      map[string]int
	completeness     float64
	failed, wrong    int
	firstError       string
	qstats           []queryStats
	execM            exec.Metrics // client engine delta
	chanM            channel.ManagerStats
	injM             faults.InjectorStats
	kindBytes        map[string]int
	mallocs, alloced uint64
	gcs              uint32
	gcCPU, cpu       float64 // seconds over the script
	wall             time.Duration
	steal            float64
}

func (o *outcome) fail(format string, args ...any) {
	if o.firstError == "" {
		o.firstError = fmt.Sprintf(format, args...)
	}
}

// runScript plays the script against the system, checking every answer
// against its expected one (want, from expectations). CPU deltas bracket
// only the calls into the program. One untimed query first lets lazy
// set-up and the heap's growth finish.
func (s *system) runScript(want []*expected) (*outcome, error) {
	in := s.in
	o := &outcome{perKindMsgs: map[string]int{}}
	for _, step := range in.script {
		if step.kind == opQuery {
			if _, err := s.client.AskAnnotated(in.syn.RQL(step.start, 2)); err != nil && !in.w.hardened {
				return nil, fmt.Errorf("warm-up query: %w", err)
			}
			break
		}
	}
	exec0 := s.client.Engine.Metrics()
	chan0 := s.channelStats()
	var kb0 map[string]int
	if s.tap != nil {
		kb0 = s.tap.snapshot()
	}
	var inj0 faults.InjectorStats
	if s.inj != nil {
		inj0 = s.inj.Stats()
	}
	ms0, gc0 := runtimeStats()
	steal0, wall0, cpu0 := stealSeconds(), time.Now(), processCPU()

	for k, step := range in.script {
		if s.tr != nil {
			s.tr.setOp(k + 1)
		}
		var cpu, wall time.Duration
		var err error
		switch step.kind {
		case opQuery:
			cpu, wall, err = s.runQuery(step, want[k], o)
		case opJoin:
			cpu, wall, err = s.runJoin(step)
		case opUpdate:
			cpu, wall, err = s.runUpdate(step)
		case opDepart:
			cpu, wall, err = s.runDepart(step)
		}
		if err != nil {
			if step.kind != opQuery {
				return nil, fmt.Errorf("op %d %v: %w", k, step, err)
			}
			o.failed++
			o.fail("op %d %v: %v", k, step, err)
		}
		o.ops.add(cpu, wall)
		o.byKind[step.kind].add(cpu, wall)
	}
	if s.tr != nil {
		s.tr.setOp(0)
	}

	o.cpu = (processCPU() - cpu0).Seconds()
	o.wall, o.steal = time.Since(wall0), stealSeconds()-steal0
	ms1, gc1 := runtimeStats()
	o.mallocs, o.alloced, o.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	o.gcCPU = gc1 - gc0
	o.execM = execDelta(exec0, s.client.Engine.Metrics())
	chan1 := s.channelStats()
	o.chanM = channel.ManagerStats{
		PacketsSent:      chan1.PacketsSent - chan0.PacketsSent,
		PayloadBytesSent: chan1.PayloadBytesSent - chan0.PayloadBytesSent,
		PacketsDuplicate: chan1.PacketsDuplicate - chan0.PacketsDuplicate,
	}
	if s.inj != nil {
		inj1 := s.inj.Stats()
		o.injM = faults.InjectorStats{Dropped: inj1.Dropped - inj0.Dropped,
			Delayed: inj1.Delayed - inj0.Delayed, Duplicated: inj1.Duplicated - inj0.Duplicated}
	}
	if s.tap != nil {
		o.kindBytes = map[string]int{}
		for kind, n := range s.tap.snapshot() {
			o.kindBytes[kind] = n - kb0[kind]
		}
	}
	return o, nil
}

func (s *system) runQuery(step op, want *expected, o *outcome) (cpu, wall time.Duration, err error) {
	text := s.in.syn.RQL(step.start, 2)
	n0 := s.net.Counters()
	var res *exec.Result
	var a asked
	w0, c0 := time.Now(), processCPU()
	s.layer("query", func() { res, a, err = s.ask(text) })
	cpu, wall = processCPU()-c0, time.Since(w0)
	n1 := s.net.Counters()

	o.queries.add(cpu, wall)
	o.simMS += n1.SimulatedMS - n0.SimulatedMS
	o.msgs += n1.Messages - n0.Messages
	o.bytes += n1.Bytes - n0.Bytes
	for kind, n := range n1.PerKind {
		if d := n - n0.PerKind[kind]; d > 0 {
			o.perKindMsgs[kind] += d
		}
	}
	if err != nil {
		return cpu, wall, err
	}
	if s.tr != nil {
		o.qstats = append(o.qstats, s.count(a))
	}
	v := judge(want, res)
	o.completeness += v.completeness
	o.rows += res.Rows.Len()
	if v.wrong {
		o.wrong++
		o.fail("query %s: %s", text, v.reason)
	}
	return cpu, wall, nil
}

// runJoin loads a fresh base and joins a peer with it: peer.New plus
// PushAdvertisement to the super-peer.
func (s *system) runJoin(step op) (cpu, wall time.Duration, err error) {
	ts := chainTriples(s.in.syn, step.start, 2, step.chain, step.n)
	var p *peer.Peer
	w0, c0 := time.Now(), processCPU()
	s.layer("join", func() {
		b := rdf.NewBase()
		s.layer("rdf.add", func() {
			for _, t := range ts {
				b.Add(t)
			}
		})
		s.layer("peer.new", func() { p, err = peer.New(s.in.w.peerConfig(step.peer, s.in.syn, b), s.net) })
		if err != nil {
			return
		}
		p.Super = superID
		s.layer("peer.push_adv", func() { err = p.PushAdvertisement(superID) })
	})
	cpu, wall = processCPU()-c0, time.Since(w0)
	if err != nil {
		return cpu, wall, err
	}
	if s.tr != nil {
		if err := wrapLocal(p.Engine, step.peer, s.tr); err != nil {
			return cpu, wall, err
		}
	}
	s.sharing[step.peer] = p
	s.adds += len(ts)
	return cpu, wall, nil
}

// runUpdate inserts chain links into a live peer's base, re-derives its
// advertisement and pushes it to the super-peer.
func (s *system) runUpdate(step op) (cpu, wall time.Duration, err error) {
	p, ok := s.sharing[step.peer]
	if !ok {
		return 0, 0, fmt.Errorf("update of unknown peer %s", step.peer)
	}
	ts := chainTriples(s.in.syn, step.start, 2, step.chain, step.n)
	w0, c0 := time.Now(), processCPU()
	s.layer("update", func() {
		s.layer("rdf.add", func() {
			for _, t := range ts {
				p.Base.Add(t)
			}
		})
		s.layer("peer.refresh_adv", p.RefreshAdvertisement)
		s.layer("peer.push_adv", func() { err = p.PushAdvertisement(superID) })
	})
	cpu, wall = processCPU()-c0, time.Since(w0)
	s.adds += len(ts)
	return cpu, wall, err
}

// runDepart takes a peer out gracefully: the two calls
// overlay.Hybrid.RemovePeer makes, announcing the departure to the
// super-peer and leaving the network.
func (s *system) runDepart(step op) (cpu, wall time.Duration, err error) {
	p, ok := s.sharing[step.peer]
	if !ok {
		return 0, 0, fmt.Errorf("departure of unknown peer %s", step.peer)
	}
	w0, c0 := time.Now(), processCPU()
	s.layer("depart", func() {
		s.layer("peer.depart", func() {
			p.AnnounceDeparture(superID)
			s.net.RemoveNode(step.peer)
		})
	})
	cpu, wall = processCPU()-c0, time.Since(w0)
	delete(s.sharing, step.peer)
	s.departed = addStats(s.departed, p.Channels.Stats())
	return cpu, wall, nil
}

// channelStats sums the channel counters of every peer started.
func (s *system) channelStats() channel.ManagerStats {
	sum := addStats(s.departed, s.client.Channels.Stats())
	for _, p := range s.sharing {
		sum = addStats(sum, p.Channels.Stats())
	}
	return sum
}

func addStats(a, b channel.ManagerStats) channel.ManagerStats {
	a.PacketsSent += b.PacketsSent
	a.PayloadBytesSent += b.PayloadBytesSent
	a.PacketsDuplicate += b.PacketsDuplicate
	return a
}

func execDelta(a, b exec.Metrics) exec.Metrics {
	return exec.Metrics{
		SubplansShipped: b.SubplansShipped - a.SubplansShipped,
		RowsShipped:     b.RowsShipped - a.RowsShipped,
		Retries:         b.Retries - a.Retries,
		Migrations:      b.Migrations - a.Migrations,
		Replans:         b.Replans - a.Replans,
		RowsRefetched:   b.RowsRefetched - a.RowsRefetched,
		RowsRetained:    b.RowsRetained - a.RowsRetained,
		PartialAnswers:  b.PartialAnswers - a.PartialAnswers,
		BackoffMS:       b.BackoffMS - a.BackoffMS,
	}
}

// runtimeStats reads the allocation counters and the runtime's estimate
// of CPU seconds spent in the garbage collector.
func runtimeStats() (runtime.MemStats, float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	gc := 0.0
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		gc = sample[0].Value.Float64()
	}
	return ms, gc
}

// heapInuse is HeapInuse after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
