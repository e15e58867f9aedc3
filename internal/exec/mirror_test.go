package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
	"sqpeer/internal/stats"
)

// mirrorRig is the Figure-2 system as bare engines: P1 roots the
// queries, and every peer answers from its own base.
type mirrorRig struct {
	net   *network.Network
	root  *Engine
	sites map[pattern.PeerID]*Engine
	bases map[pattern.PeerID]*rdf.Base
}

func newMirrorRig(t *testing.T, pairs int) *mirrorRig {
	t.Helper()
	rig := &mirrorRig{net: network.New(), sites: map[pattern.PeerID]*Engine{}, bases: gen.PaperBases(pairs)}
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		rig.serve(id, rig.bases[id])
	}
	rig.root = rig.sites["P1"]
	return rig
}

// serve (re)starts peer id over base: a fresh engine and channel
// manager, as a peer that left and came back.
func (rig *mirrorRig) serve(id pattern.PeerID, base *rdf.Base) *Engine {
	e := NewEngine(id, rig.net, channel.NewManager(id, rig.net), baseSource{base: base, schema: gen.PaperSchema()})
	e.Options = Options{Policy: optimizer.DataShipping, Parallelism: 4, MaxRetries: 2, DeadlineMS: 200, BatchSize: 1}
	e.Channels.DeadlineMS = 200
	rig.sites[id], rig.bases[id] = e, base
	return e
}

// plan1 is Figure 4's Plan 1: every Q1 site joined with every Q2 site.
func plan1() *plan.Plan {
	q := gen.PaperQuery()
	return &plan.Plan{Query: q, Root: plan.NewJoin(
		plan.NewUnion(plan.NewScan(q.Patterns[0], "P1"), plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[0], "P4")),
		plan.NewUnion(plan.NewScan(q.Patterns[1], "P1"), plan.NewScan(q.Patterns[1], "P3"), plan.NewScan(q.Patterns[1], "P4")),
	)}
}

// ask runs p at the root and checks the answer against rql.Eval over
// the union of the current bases: a complete answer must equal it, and
// a partial one must be a subset with its holes named.
func (rig *mirrorRig) ask(t *testing.T, p *plan.Plan) {
	t.Helper()
	rows, comp, err := rig.root.ExecuteBatch(p, nil, admission.QoS{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	c, err := rql.ParseAndAnalyze(gen.PaperRQL, gen.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	merged := rdf.NewBase()
	for _, b := range rig.bases {
		merged.AddAll(b.Triples())
	}
	want, err := rql.Eval(c, merged)
	if err != nil {
		t.Fatal(err)
	}
	got := rows.Project(c.Pattern.Projections).ResultSet().Sorted()
	if comp.Complete {
		if g, w := strings.Join(got, "\n"), strings.Join(want.Sorted(), "\n"); g != w {
			t.Fatalf("complete answer:\n%s\nwant:\n%s", g, w)
		}
		return
	}
	if len(comp.Unanswered) == 0 {
		t.Fatal("partial answer names no hole")
	}
	truth := map[string]bool{}
	for _, r := range want.Sorted() {
		truth[r] = true
	}
	for _, r := range got {
		if !truth[r] {
			t.Fatalf("partial answer holds %s, which is not in the truth", r)
		}
	}
}

// checkMirror fails t unless the root mirrors site's current base: the
// stamp is the base's, and every table entry maps to the base's term.
func (rig *mirrorRig) checkMirror(t *testing.T, site pattern.PeerID) {
	t.Helper()
	m := rig.root.mirror.Load()
	if m == nil {
		t.Fatal("the root made no mirror")
	}
	base := rig.bases[site]
	_, _, terms := base.PairIDs("", nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.sites[site]
	if sm == nil || sm.stamp != base.Stamp() || len(sm.ids) == 0 {
		t.Fatalf("root mirrors %+v of %s, whose base has stamp %d", sm, site, base.Stamp())
	}
	for i, id := range sm.ids {
		if got := m.store.Term(id); got != terms[i] {
			t.Fatalf("%s entry %d mirrors %v, base holds %v", site, i, got, terms[i])
		}
	}
}

// tap is an injector that shows every delivery to on, then lets script
// (if any) decide its fate.
type tap struct {
	mu     sync.Mutex
	on     func(network.Message)
	script *faults.Script
}

func (tp *tap) Intercept(m network.Message) network.Fault {
	tp.mu.Lock()
	on := tp.on
	tp.mu.Unlock()
	if on != nil {
		on(m)
	}
	if tp.script == nil {
		return network.Fault{}
	}
	return tp.script.Intercept(m)
}

// Dropped, duplicated and late Results packets, in a site's first
// answer (self-contained frames), in the one that fills the root's
// mirror and in a warm one: the channel's in-sequence acceptance, the
// checkpointed retry and the mirror together keep every answer exact.
func TestMirrorsUnderResultsFaults(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault network.Fault
	}{
		{"drop", network.Fault{Drop: true}},
		{"duplicate", network.Fault{Duplicate: true}},
		{"late", network.Fault{ExtraDelayMS: 1000}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := newMirrorRig(t, 3)
			// P4 sends six packets per query, P2 and P3 three each: hit
			// P4's second (in the first query), P2's fifth (its second
			// in the query that fills the mirror) and P3's eighth (its
			// second in the first warm query).
			script := faults.NewScript(
				&faults.ScriptRule{From: "P4", Kind: "chan.packet", After: 1, Count: 1, Fault: c.fault},
				&faults.ScriptRule{From: "P2", Kind: "chan.packet", After: 4, Count: 1, Fault: c.fault},
				&faults.ScriptRule{From: "P3", Kind: "chan.packet", After: 7, Count: 1, Fault: c.fault},
			)
			rig.net.SetInjector(script)
			for q := 0; q < 4; q++ {
				rig.ask(t, plan1())
			}
			if script.Matched(0) < 2 || script.Matched(1) < 5 || script.Matched(2) < 8 {
				t.Fatalf("faults never hit: rules matched %d, %d and %d deliveries",
					script.Matched(0), script.Matched(1), script.Matched(2))
			}
			for _, site := range []pattern.PeerID{"P2", "P3", "P4"} {
				rig.checkMirror(t, site)
			}
		})
	}
}

// A site's first answer to a root is self-contained and its final packet
// names the base's stamp; the root states that stamp next time and gets
// mirror frames that fill its table from offset 0; after that the
// site's answers ship base ids and no entries.
func TestMirrorFilledOnSecondAnswer(t *testing.T) {
	rig := newMirrorRig(t, 3)
	var mu sync.Mutex
	var self, mirror, stamped int
	rig.net.SetInjector(&tap{on: func(m network.Message) {
		if m.Kind != "chan.packet" || m.From != "P2" {
			return
		}
		pkt, err := channel.DecodePacket(m.Payload)
		if err != nil || pkt.Type != channel.Results {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if _, _, ok := rql.PeekMirror(pkt.Payload); ok {
			mirror++
		} else {
			self++
		}
		if pkt.Stamp == rig.bases["P2"].Stamp() {
			stamped++
		}
	}})
	var bytes []int
	var held []holding
	for q := 0; q < 3; q++ {
		mu.Lock()
		self, mirror, stamped = 0, 0, 0
		mu.Unlock()
		rig.net.ResetCounters()
		rig.ask(t, plan1())
		bytes = append(bytes, rig.net.Counters().Bytes)
		held = append(held, rig.root.mirrors().holding("P2"))
		mu.Lock()
		got := fmt.Sprint(self, mirror, stamped)
		mu.Unlock()
		// P2 answers Q1 in three one-row frames.
		if want := []string{"3 0 1", "0 3 0", "0 3 0"}[q]; got != want {
			t.Errorf("query %d: P2 sent self-contained, mirror and stamped final packets %s, want %s", q, got, want)
		}
	}
	stamp := rig.bases["P2"].Stamp()
	if held[0] != (holding{stamp: stamp}) || held[1].stamp != stamp || held[1].mirrored == 0 || held[2] != held[1] {
		t.Errorf("root held %+v of P2 after each query", held)
	}
	if !(bytes[2] < bytes[0] && bytes[0] < bytes[1]) {
		t.Errorf("bytes per query %v: want the warm query cheapest and the filling one dearest", bytes)
	}
	rig.checkMirror(t, "P2")
}

// A lost final packet on a warm mirror: the retry resumes after the rows
// that made it, stating the table as it stands.
func TestMirrorResumesAfterLostFinal(t *testing.T) {
	rig := newMirrorRig(t, 3)
	rig.root.Parallelism = 1
	rig.ask(t, plan1())
	rig.ask(t, plan1()) // fills the mirror
	// Warm query: P2 answers Q1 in three one-row frames; drop the third.
	rig.net.SetInjector(faults.NewScript(&faults.ScriptRule{
		From: "P2", Kind: "chan.packet", After: 2, Count: 1, Fault: network.Fault{Drop: true},
	}))
	before := rig.root.Metrics()
	rig.ask(t, plan1())
	if m := rig.root.Metrics(); m.Resumes == before.Resumes {
		t.Error("the retry did not resume from the checkpoint")
	}
	rig.checkMirror(t, "P2")
}

// A site whose base is replaced under the same PeerID: the new base
// holds other triples over some of the same terms, under other ids. Its
// first answer is self-contained and names the new stamp, on which the
// root drops the old table; the next fills a new one from offset 0. The
// root must never translate the new ids through the old table.
func TestMirrorFollowsReplacedBase(t *testing.T) {
	rig := newMirrorRig(t, 3)
	rig.ask(t, plan1())
	rig.ask(t, plan1())
	rig.checkMirror(t, "P4")
	fresh := rdf.NewBase()
	fresh.Add(rdf.Statement("http://ics.forth.gr/data/P4#w", gen.N1("prop3"), "http://ics.forth.gr/data/P4#v"))
	for i := 0; i < 3; i++ {
		fresh.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/P4#x5_%d", i)), gen.N1("prop4"),
			rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", 2-i))))
	}
	rig.serve("P4", fresh)
	rig.ask(t, plan1())
	if h := rig.root.mirrors().holding("P4"); h.stamp != fresh.Stamp() || h.mirrored != 0 {
		t.Fatalf("after the new base's first answer the root holds %+v, want its stamp %d and no entries", h, fresh.Stamp())
	}
	rig.ask(t, plan1())
	rig.checkMirror(t, "P4")
}

// A mirror frame whose offset is past the root's table (the table was
// emptied between the request and the frame) is refused, never
// translated, and retried with the fresh count, beyond MaxRetries.
func TestMirrorRefusesFrameBeyondTable(t *testing.T) {
	rig := newMirrorRig(t, 3)
	rig.root.MaxRetries = 0
	rig.ask(t, plan1())
	rig.ask(t, plan1()) // fills the mirror
	reset := false
	rig.net.SetInjector(&tap{on: func(m network.Message) {
		if m.Kind != "exec.subplan" || m.To != "P4" || reset {
			return
		}
		reset = true
		mm := rig.root.mirror.Load()
		mm.mu.Lock()
		mm.sites["P4"].ids = nil
		mm.mu.Unlock()
	}})
	before := rig.root.Metrics()
	rig.ask(t, plan1())
	if !reset {
		t.Fatal("no request reached P4")
	}
	if m := rig.root.Metrics(); m.Retries == before.Retries {
		t.Error("the refused frame was not retried")
	}
	rig.checkMirror(t, "P4")
}

// Two branches of one execution hit one site the root does not mirror
// yet, in its first query and in the one that fills the mirror: both
// requests state what the root held when the execution met the site, so
// the traffic is the same whichever branch takes the site's channel
// first. The union's branches run in both orders, one at a time, and
// then concurrently.
func TestMirrorTwoBranchesOneColdSite(t *testing.T) {
	q := gen.PaperQuery()
	branches := []plan.Node{
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3")),
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P4"), plan.NewScan(q.Patterns[1], "P3")),
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P4")),
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P4"), plan.NewScan(q.Patterns[1], "P4")),
	}
	reversed := slices.Clone(branches)
	slices.Reverse(reversed)
	var want []int
	for run, c := range []struct {
		branches []plan.Node
		par      int
	}{{branches, 1}, {reversed, 1}, {branches, 4}, {reversed, 4}} {
		// Enough pairs that the sites' dictionaries run past 128
		// entries, where a split range's offsets would change width.
		rig := newMirrorRig(t, 80)
		rig.root.Parallelism = c.par
		delete(rig.bases, "P1") // the plan reads no P1 data
		var got []int
		for q := 0; q < 3; q++ {
			rig.net.ResetCounters()
			rig.ask(t, &plan.Plan{Query: gen.PaperQuery(), Root: plan.NewUnion(c.branches...)})
			got = append(got, rig.net.Counters().Bytes)
		}
		rig.checkMirror(t, "P4")
		if run == 0 {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d moved %v bytes per query, run 0 %v", run, got, want)
		}
	}
}

// A dropped Final packet that carried a changed Stats trailer: the root
// never applied it, so the retry states the generation it did apply and
// gets the trailer again; the next query states the new one and gets
// none. A trailer the root cannot decode is not applied either: every
// request states the generation before it until one decodes.
func TestMirrorStatsTrailerAfterLostFinal(t *testing.T) {
	rig := newMirrorRig(t, 3)
	rig.root.Parallelism = 1
	var mu sync.Mutex
	gen4 := uint64(7)
	corrupt := false
	rig.sites["P4"].StatsProvider = func() ([]byte, uint64, uint64) {
		mu.Lock()
		defer mu.Unlock()
		if corrupt {
			return []byte("not a stats body"), rig.bases["P4"].Stamp(), gen4
		}
		body, err := stats.MarshalPeerStats(&stats.PeerStats{Peer: "P4", Slots: int(gen4)})
		if err != nil {
			t.Error(err)
		}
		return body, rig.bases["P4"].Stamp(), gen4
	}
	var applied []int
	rig.root.StatsSink = func(ps *stats.PeerStats) {
		mu.Lock()
		applied = append(applied, ps.Slots)
		mu.Unlock()
	}
	var stated []uint64
	trailers := 0
	tp := &tap{on: func(m network.Message) {
		switch {
		case m.Kind == "exec.subplan" && m.To == "P4":
			req, err := channel.DecodeSubplan(m.Payload)
			if err != nil {
				t.Error(err)
			}
			stated = append(stated, req.StatsGen)
		case m.Kind == "chan.packet" && m.From == "P4":
			if pkt, err := channel.DecodePacket(m.Payload); err == nil && len(pkt.Stats) > 0 {
				trailers++
			}
		}
	}}
	rig.net.SetInjector(tp)
	rig.ask(t, plan1()) // applies generation 7
	mu.Lock()
	gen4 = 8
	mu.Unlock()
	stated, trailers = nil, 0
	// P4 answers Q1, then Q2, each in three one-row frames: drop the
	// third, which is Q1's final frame and carries generation 8.
	tp.script = faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: 2, Count: 1, Fault: network.Fault{Drop: true},
	})
	rig.ask(t, plan1())
	// Both subplans state generation 7 as applied (8 = 7+1): Q1's first
	// try and its retry, since the dropped trailer was never applied,
	// and Q2 on the retry's fresh channel slot, since Q1's retry had not
	// finished when the slot was made.
	if fmt.Sprint(stated) != "[8 8 8]" || trailers != 3 {
		t.Errorf("query with the lost final: P4 was stated %v and sent %d trailers, want [8 8 8] and 3", stated, trailers)
	}
	stated, trailers = nil, 0
	rig.ask(t, plan1())
	if fmt.Sprint(stated) != "[9 9]" || trailers != 0 {
		t.Errorf("next query: P4 was stated %v and sent %d trailers, want [9 9] and none", stated, trailers)
	}
	if got := fmt.Sprint(applied); got != "[7 7 8 8]" {
		t.Errorf("root applied statistics %v, want generation 7 twice, then 8 twice", got)
	}

	// Generation 9 ships a body the root cannot read: two queries each
	// still state 8 as applied and get the trailer; once it decodes, it
	// is applied and the next query gets none.
	mu.Lock()
	gen4, corrupt = 9, true
	mu.Unlock()
	for q := 0; q < 2; q++ {
		stated, trailers = nil, 0
		rig.ask(t, plan1())
		if fmt.Sprint(stated) != "[9 9]" || trailers != 2 {
			t.Errorf("corrupt trailer, query %d: P4 was stated %v and sent %d trailers, want [9 9] and 2", q, stated, trailers)
		}
	}
	mu.Lock()
	corrupt = false
	mu.Unlock()
	stated, trailers = nil, 0
	rig.ask(t, plan1())
	if fmt.Sprint(stated) != "[9 9]" || trailers != 2 {
		t.Errorf("readable trailer: P4 was stated %v and sent %d trailers, want [9 9] and 2", stated, trailers)
	}
	stated, trailers = nil, 0
	rig.ask(t, plan1())
	if fmt.Sprint(stated) != "[10 10]" || trailers != 0 {
		t.Errorf("after the readable trailer: P4 was stated %v and sent %d trailers, want [10 10] and none", stated, trailers)
	}
	if got := fmt.Sprint(applied); got != "[7 7 8 8 9 9]" {
		t.Errorf("root applied statistics %v, want generations 7, 8 and 9 twice each", got)
	}
}

// reversedSource joins a scan's patterns in the opposite order: the same
// relation, its rows in another order.
type reversedSource struct{ baseSource }

func (s reversedSource) EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	rev := slices.Clone(patterns)
	slices.Reverse(rev)
	return s.baseSource.EvalScanBatch(rev, store)
}

// rowOrder renders b's rows in order, each over its variables sorted.
func rowOrder(b *rql.Batch) string {
	vars := slices.Clone(b.Vars)
	slices.Sort(vars)
	var out []string
	for _, row := range b.ResultSet().Rows {
		var cells []string
		for _, v := range vars {
			cells = append(cells, v+"="+row[v].String())
		}
		out = append(out, strings.Join(cells, " "))
	}
	return strings.Join(out, "\n")
}

// A serving answer whose rows are permuted ships the same bytes in
// mirror frames, the one that fills the root's mirror and a warm one:
// their entries and the fallback decision depend on the answer's set of
// ids, and a column costs the same whatever its order. (A site's first
// answer to a root is self-contained, numbered in order of first
// appearance, and is left out.)
func TestServingStreamIgnoresRowOrder(t *testing.T) {
	q := gen.PaperQuery()
	merged := &plan.Plan{Query: q, Root: &plan.Scan{Patterns: q.Patterns, Peer: "P4"}}
	var want []int
	var orders []string
	// P4's prop2 objects take ids in the opposite order of their
	// subjects, so the two scans sort their rows oppositely.
	const n = 80
	base := rdf.NewBase()
	y := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/shared#y%d", i)) }
	for i := 0; i < n; i++ {
		base.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/P4#x5_%d", i)), gen.N1("prop4"), y(i)))
	}
	for i := n - 1; i >= 0; i-- {
		base.Add(rdf.Statement(y(i), gen.N1("prop2"), rdf.IRI(fmt.Sprintf("http://ics.forth.gr/data/P4#z%d", i))))
	}
	for _, reverse := range []bool{false, true} {
		rig := newMirrorRig(t, 3)
		p4 := rig.serve("P4", base)
		src := baseSource{base: base, schema: gen.PaperSchema()}
		if reverse {
			p4.Local = reversedSource{src}
		}
		orders = append(orders, rowOrder(p4.Local.(BatchSource).EvalScanBatch(q.Patterns, nil)))
		p4.BatchSize = 7
		for id := range rig.bases {
			if id != "P4" {
				delete(rig.bases, id) // the plan reads only P4's data
			}
		}
		mirrored := 0
		rig.net.SetInjector(&tap{on: func(m network.Message) {
			if m.Kind == "chan.packet" && m.From == "P4" {
				if pkt, err := channel.DecodePacket(m.Payload); err == nil {
					if _, _, ok := rql.PeekMirror(pkt.Payload); ok {
						mirrored++
					}
				}
			}
		}})
		var got []int
		for q := 0; q < 3; q++ {
			rig.net.ResetCounters()
			rig.ask(t, merged)
			if q > 0 {
				got = append(got, rig.net.Counters().Bytes)
			}
		}
		if mirrored == 0 {
			t.Fatal("P4 sent no mirror frame; the test is vacuous")
		}
		if want == nil {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("permuted answer moved %v bytes per query, the original %v", got, want)
		}
	}
	if orders[0] == orders[1] {
		t.Fatal("both join orders give the rows in one order; the test is vacuous")
	}
}

// mirrorOf picks the frame form from the request and the whole answer:
// mirror frames only on the dictionary the request names, shipping the
// entries from the stated count up to the largest referenced id, and
// self-contained frames once those entries exceed mirrorFallback times
// the distinct ids referenced.
func TestMirrorOfChoosesTheFrameForm(t *testing.T) {
	base := rdf.NewBase()
	for i := 0; i < 100; i++ {
		base.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://d/P4#x5_%d", i)), gen.N1("prop4"),
			rdf.IRI(fmt.Sprintf("http://d/s#y%d", i))))
	}
	for i := 0; i < 2; i++ {
		base.Add(rdf.Statement(rdf.IRI(fmt.Sprintf("http://d/s#y%d", i)), gen.N1("prop2"),
			rdf.IRI(fmt.Sprintf("http://d/P4#z%d", i))))
	}
	_, _, terms := base.PairIDs("", nil)
	n := len(terms) // the two prop2 objects are the last entries
	pats := gen.PaperQuery().Patterns
	// Q1 (prop1, so prop4's pairs) references every entry but the two
	// properties and the two prop2 objects; Q2 references four entries,
	// the last of them the base's last.
	q1 := rql.EvalPathPatternBatch(base, gen.PaperSchema(), pats[0])
	q2 := rql.EvalPathPatternBatch(base, gen.PaperSchema(), pats[1])
	stamp := base.Stamp()
	for _, c := range []struct {
		name string
		rows *rql.Batch
		req  channel.SubplanRequest
		want string // "self", or the shipped entries "[offset, end)"
	}{
		{"first answer", q1, channel.SubplanRequest{}, "self"},
		{"another dictionary", q1, channel.SubplanRequest{Stamp: stamp + 1, Mirrored: 5}, "self"},
		{"fill", q1, channel.SubplanRequest{Stamp: stamp}, fmt.Sprintf("[0, %d)", n-3)},
		{"partial", q1, channel.SubplanRequest{Stamp: stamp, Mirrored: 150}, fmt.Sprintf("[150, %d)", n-3)},
		{"warm", q1, channel.SubplanRequest{Stamp: stamp, Mirrored: n}, fmt.Sprintf("[%d, %d)", n, n)},
		{"sparse fill", q2, channel.SubplanRequest{Stamp: stamp}, "self"},
		// Nine entries for four referenced ids is past twice; eight is not.
		{"sparse, all but the last nine held", q2, channel.SubplanRequest{Stamp: stamp, Mirrored: n - 9}, "self"},
		{"sparse, all but the last eight held", q2, channel.SubplanRequest{Stamp: stamp, Mirrored: n - 8}, fmt.Sprintf("[%d, %d)", n-8, n)},
	} {
		got := "self"
		if m, _ := mirrorOf(c.rows, &c.req); m != nil {
			got = fmt.Sprintf("[%d, %d)", m.Offset, m.Offset+len(m.Entries))
		}
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// probeSource runs check before its first scan, then scans inner.
type probeSource struct {
	inner BatchSource
	check func()
}

func (s *probeSource) EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	if s.check != nil {
		s.check()
		s.check = nil
	}
	return s.inner.EvalScanBatch(patterns, store)
}

// A root whose mirror store has grown past maxMirrorTerms starts a new
// store as its next execution starts, with every site's table empty, and
// answers right from there on: the first answers after the reset refill
// the tables, and later ones read them.
func TestMirrorStoreResetPastCap(t *testing.T) {
	rig := newMirrorRig(t, 3)
	rig.root.Parallelism = 1
	rig.ask(t, plan1())
	rig.ask(t, plan1()) // fills the mirrors
	rig.checkMirror(t, "P4")
	old := rig.root.mirror.Load().store
	filler := make([]rdf.Term, maxMirrorTerms+1-old.Len())
	for i := range filler {
		filler[i] = rdf.Term{Kind: rdf.KindIRI, Value: fmt.Sprintf("urn:filler:%d", i)}
	}
	old.Intern(nil, filler)
	if old.Len() <= maxMirrorTerms {
		t.Fatalf("store holds %d terms, want more than %d", old.Len(), maxMirrorTerms)
	}
	// P2 answers the root's first remote leaf: when it scans, the new
	// execution has started and no frame has reached the root yet.
	probed := false
	rig.sites["P2"].Local = &probeSource{inner: rig.sites["P2"].Local, check: func() {
		probed = true
		m := rig.root.mirror.Load()
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.store == old || m.store.Len() != 0 {
			t.Errorf("the root kept its %d-term store", m.store.Len())
		}
		for site, sm := range m.sites {
			if len(sm.ids) != 0 {
				t.Errorf("%s's table kept %d entries", site, len(sm.ids))
			}
		}
	}}
	rig.ask(t, plan1())
	if !probed {
		t.Fatal("P2 never scanned")
	}
	rig.ask(t, plan1())
	rig.ask(t, plan1())
	for _, site := range []pattern.PeerID{"P2", "P3", "P4"} {
		rig.checkMirror(t, site)
	}
}
