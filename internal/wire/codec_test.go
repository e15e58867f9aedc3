package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/stats"
	"sqpeer/internal/wire"
)

// bodies are real query-path bodies of one kind each.
type bodies struct {
	plans, queries, annotations, stats [][]byte
}

// realBodies runs the paper query over a traced four-peer system that
// routes through a super-peer and returns what crossed the wire: the
// plans inside exec.subplan requests, the query.route request and its
// reply, and the Stats trailers of final chan.packet bodies.
func realBodies(t testing.TB) bodies {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(2)
	net := network.New()
	var mu sync.Mutex
	var out bodies
	net.SetInjector(tap(func(m network.Message) {
		mu.Lock()
		defer mu.Unlock()
		switch m.Kind {
		case "exec.subplan":
			req, err := channel.DecodeSubplan(m.Payload)
			if err != nil {
				t.Fatalf("subplan request: %v", err)
			}
			out.plans = append(out.plans, bytes.Clone(req.Plan))
		case "query.route":
			out.queries = append(out.queries, bytes.Clone(m.Payload))
		case "chan.packet":
			p, err := channel.DecodePacket(m.Payload)
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			if len(p.Stats) > 0 {
				out.stats = append(out.stats, bytes.Clone(p.Stats))
			}
		}
	}))
	sp, err := peer.New(peer.Config{ID: "SP", Kind: peer.SuperPeer, Schema: schema}, net)
	if err != nil {
		t.Fatal(err)
	}
	var p1 *peer.Peer
	var all []*peer.Peer
	for _, id := range []pattern.PeerID{"P1", "P2", "P3", "P4"} {
		cfg := peer.Config{ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id]}
		if id == "P1" {
			cfg.Tracer = obs.NewTracer()
		}
		p, err := peer.New(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
		if id == "P1" {
			p1 = p
		}
	}
	for _, a := range all {
		sp.Learn(a.Advertisement())
		for _, b := range all {
			if a != b {
				a.Learn(b.Advertisement())
			}
		}
	}
	p1.Super = "SP"
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatalf("paper query: %v", err)
	}
	for _, q := range out.queries {
		reply, err := net.Call("P1", "SP", "query.route", q)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		out.annotations = append(out.annotations, reply)
	}
	if len(out.plans) == 0 || len(out.queries) == 0 || len(out.stats) == 0 {
		t.Fatalf("traced paper query sent %d plans, %d routing requests, %d stats payloads; want some of each",
			len(out.plans), len(out.queries), len(out.stats))
	}
	return out
}

type tap func(network.Message)

func (f tap) Intercept(m network.Message) network.Fault {
	f(m)
	return network.Fault{}
}

// codec is one query-path codec seen as bytes → value → bytes.
type codec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) ([]byte, error)
}

var codecs = []codec{
	{"plan",
		func(b []byte) (any, error) { return plan.Unmarshal(b) },
		func(v any) ([]byte, error) { return plan.Marshal(v.(*plan.Plan)) }},
	{"query",
		func(b []byte) (any, error) { return pattern.UnmarshalQuery(b) },
		func(v any) ([]byte, error) { return pattern.MarshalQuery(v.(*pattern.QueryPattern)) }},
	{"annotation",
		func(b []byte) (any, error) { return pattern.UnmarshalAnnotated(b) },
		func(v any) ([]byte, error) { return pattern.MarshalAnnotated(v.(*pattern.Annotated)) }},
	{"stats",
		func(b []byte) (any, error) { return stats.UnmarshalPeerStats(b) },
		func(v any) ([]byte, error) { return stats.MarshalPeerStats(v.(*stats.PeerStats)) }},
}

func (b bodies) of(name string) [][]byte {
	switch name {
	case "plan":
		return b.plans
	case "query":
		return b.queries
	case "annotation":
		return b.annotations
	default:
		return b.stats
	}
}

// table front-codes strs (sorted, distinct, short) as an Encode body's
// string table: count, byte total, then each entry's shared-prefix
// length and suffix. Every number fits one byte.
func table(strs ...string) []byte {
	b := []byte{byte(len(strs)), 0}
	prev, nbytes := "", 0
	for _, s := range strs {
		p := 0
		for p < len(prev) && p < len(s) && prev[p] == s[p] {
			p++
		}
		b = append(b, byte(p), byte(len(s)-p))
		b = append(b, s[p:]...)
		prev, nbytes = s, nbytes+len(s)
	}
	b[1] = byte(nbytes)
	return b
}

// body is a hand-made Encode body: format byte, table, rest.
func body(format byte, tab []byte, rest ...byte) []byte {
	return slices.Concat([]byte{format}, tab, rest)
}

// badTable is a malformed string table and the reason a decoder gives.
type badTable struct {
	what, why string
	tab       []byte
}

// badTables are string tables every codec must reject, most next to the
// well-formed table they break: [ab ac] is 2 entries, 4 bytes,
// (0, "ab"), (1, "c").
var badTables = []badTable{
	{"table count past the input", "length past end", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 1, 'a'}},
	{"table count the remaining bytes cannot hold", "length past end", []byte{0x40, 0, 0, 0}},
	{"shared length past the previous entry", "shared prefix longer", []byte{2, 3, 0, 1, 'a', 2, 1, 'b'}},
	{"first entry shares a prefix", "shared prefix longer", []byte{1, 2, 1, 2, 'a', 'b'}},
	{"shared length not maximal", "not maximal", []byte{2, 4, 0, 2, 'a', 'b', 0, 2, 'a', 'c'}},
	{"byte total one short", "byte total", []byte{2, 3, 0, 2, 'a', 'b', 1, 1, 'c'}},
	{"byte total one long", "byte total", []byte{2, 5, 0, 2, 'a', 'b', 1, 1, 'c'}},
	{"equal consecutive entries", "out of order", []byte{2, 4, 0, 2, 'a', 'b', 2, 0}},
	{"entry a prefix of the one above", "out of order", []byte{2, 3, 0, 2, 'a', 'b', 1, 0}},
	{"entry sorting before the one above", "out of order", []byte{2, 4, 0, 2, 'a', 'c', 1, 1, 'b'}},
	{"unsorted table", "out of order", []byte{2, 2, 0, 1, 'b', 0, 1, 'a'}},
	{"byte total past what the body can decode to", "byte total", []byte{1, 0x80, 0x80, 0x40, 0, 1, 'a'}},
	{"byte total past the cap, in a few bytes", "byte total", []byte{1, 0x81, 0x80, 0x80, 0x20, 0, 1, 'a'}},
	{"negative byte total", "byte total", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 1, 'a'}},
	{"non-canonical count", "bad varint", []byte{0x81, 0x00, 0, 1, 'a'}},
	{"non-canonical shared length", "bad varint", []byte{1, 1, 0x80, 0x00, 1, 'a'}},
}

// TestCodecsRejectMalformed: every body the traced paper query sent
// decodes and re-encodes to the same bytes, while every proper prefix of
// one, a body with trailing bytes or a foreign format byte, every
// malformed string table (badTables), counts larger than the input,
// unsorted or duplicate map keys, an unused table string and plan
// nesting past the depth bound are all rejected with wire.ErrMalformed.
func TestCodecsRejectMalformed(t *testing.T) {
	traced := realBodies(t)
	for _, c := range codecs {
		for i, b := range traced.of(c.name) {
			v, err := c.decode(b)
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, i, err)
			}
			if again, err := c.encode(v); err != nil || !bytes.Equal(again, b) {
				t.Errorf("%s %d re-encodes as %x, %v; want %x", c.name, i, again, err, b)
			}
		}
	}
	reject := func(c codec, what string, b []byte) {
		t.Helper()
		if _, err := c.decode(b); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: %s accepted or misreported: %v", c.name, what, err)
		}
	}
	for _, c := range codecs {
		b := traced.of(c.name)[0]
		for n := 0; n < len(b); n++ {
			reject(c, fmt.Sprintf("prefix %d/%d", n, len(b)), b[:n])
		}
		reject(c, "trailing byte", append(bytes.Clone(b), 0))
		reject(c, "foreign format", append([]byte{9}, b[1:]...))
		reject(c, "previous format", append([]byte{b[0] - 1}, b[1:]...))
		for _, bt := range badTables {
			b := body(b[0], bt.tab, 0, 0, 0, 0, 0, 0, 0, 0)
			if _, err := c.decode(b); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), bt.why) {
				t.Errorf("%s: %s accepted or misreported: %v; want %q", c.name, bt.what, err, bt.why)
			}
		}
	}
	plans, annotations, statsC := codecs[0], codecs[2], codecs[3]
	pf, af, sf := traced.plans[0][0], traced.annotations[0][0], traced.stats[0][0]

	// Counts larger than the input, inside the body.
	reject(plans, "scan pattern count past the input", body(pf, table("P"), 0, 1, 0, 0x7f))
	reject(plans, "union input count past the input", body(pf, table(), 0, 2, 0x7f, 1))
	reject(statsC, "map count past the input", body(sf, table("P"), 0, 0x7f, 0))

	// Stats map keys must increase: table [P a b], peer P, keys b then a.
	reject(statsC, "unsorted map keys", body(sf, table("P", "a", "b"), 0, 2, 2, 5, 1, 6, 0, 0, 0, 0))
	reject(statsC, "duplicate map key", body(sf, table("P", "a", "b"), 0, 3, 1, 5, 1, 6, 2, 7, 0, 0, 0, 0))
	sorted := body(sf, table("P", "a", "b"), 0, 2, 1, 5, 2, 6, 0, 0, 0, 0)
	if ps, err := stats.UnmarshalPeerStats(sorted); err != nil || ps.PropertyCard["a"] != 5 || ps.PropertyCard["b"] != 6 {
		t.Errorf("sorted stats body = %+v, %v", ps, err)
	}
	reject(statsC, "unused table string", body(sf, table("P", "z"), 0, 0, 0, 0, 0, 0))

	// Annotation peers map with keys out of order: table [Q1 Q2 X],
	// schema "X", no patterns, projection "X"; peers Q2, Q1.
	reject(annotations, "unsorted annotation keys", body(af, table("Q1", "Q2", "X"), 2, 0, 1, 2, 2, 1, 0, 0, 0, 0))

	// Plan nesting: a chain of one-input unions over a scan.
	deep := func(depth int) []byte {
		b := body(pf, table("P"), 0) // no query
		for i := 0; i < depth; i++ {
			b = append(b, 2, 1)
		}
		return append(b, 1, 0, 1, 0, 0, 0, 0, 0, 0)
	}
	if _, err := plan.Unmarshal(deep(plan.MaxWireDepth - 1)); err != nil {
		t.Errorf("plan at the depth bound rejected: %v", err)
	}
	reject(plans, "plan past the depth bound", deep(plan.MaxWireDepth))
	var n plan.Node = plan.NewScan(gen.PaperQuery().Patterns[0], "P")
	for i := 0; i < plan.MaxWireDepth; i++ {
		n = &plan.Union{Inputs: []plan.Node{n}}
	}
	if _, err := plan.Marshal(&plan.Plan{Root: n}); err == nil {
		t.Error("plan past the depth bound marshalled")
	}
	reject(plans, "empty union", body(pf, table(), 0, 2, 0))
	reject(plans, "unknown node kind", body(pf, table(), 0, 7))
	reject(plans, "bad query flag", body(pf, table("P"), 2, 1, 0, 1, 0, 0, 0, 0, 0, 0))
}

// TestTableCodec: a table of IRIs in one namespace ships the namespace
// once; well-formed tables (empty ones and an empty string included)
// decode, every bad table is rejected for its reason, Encode refuses a
// table past wire.MaxStrings, and rejecting a table that claims a huge
// byte total allocates nothing sized by the claim.
func TestTableCodec(t *testing.T) {
	const ns = "http://ics.forth.gr/SON/syn#"
	b, err := wire.Encode(1, func(w *wire.Writer) {
		for _, s := range []string{ns + "p2", ns + "K1", ns + "K2"} {
			w.Str(s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := body(1, table(ns+"K1", ns+"K2", ns+"p2"), 2, 0, 1)
	if !bytes.Equal(b, want) || bytes.Count(b, []byte(ns)) != 1 {
		t.Errorf("table of one namespace = %q; want %q", b, want)
	}

	read := func(b []byte) ([]string, error) {
		r := wire.NewReader(b)
		r.Table()
		var out []string
		for r.Err() == nil && r.Len() > 0 {
			out = append(out, r.Ref())
		}
		return out, r.Finish()
	}
	for _, tab := range [][]byte{table(), table(""), table("", "a"), table("ab", "ac"), table("a", "ab", "b")} {
		n := int(tab[0])
		refs := make([]byte, n)
		for i := range refs {
			refs[i] = byte(i)
		}
		if got, err := read(append(bytes.Clone(tab), refs...)); err != nil || len(got) != n {
			t.Errorf("table %q = %q, %v", tab, got, err)
		}
	}
	for _, bt := range badTables {
		if _, err := read(append(bytes.Clone(bt.tab), 0, 0)); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), bt.why) {
			t.Errorf("%s accepted or misreported: %v; want %q", bt.what, err, bt.why)
		}
	}

	// Encode refuses a table that decodes past the cap: 65 prefixes of
	// one 1 MiB string front-code into a few bytes each but decode to
	// 65 MiB.
	long := strings.Repeat("x", 1<<20)
	if _, err := wire.Encode(1, func(w *wire.Writer) {
		for i := 0; i <= wire.MaxStrings>>20; i++ {
			w.Str(long[i:])
		}
	}); err == nil {
		t.Error("Encode shipped a table past wire.MaxStrings")
	}

	// Hostile claims: 1 entry of 1 byte claiming 60 MiB (under the cap,
	// past what the body can decode to), and 4 096 entries over 25 KiB
	// claiming one byte past the cap (which the body's size alone would
	// allow).
	capped := binary.AppendUvarint([]byte{0x80, 0x20}, wire.MaxStrings+1)
	capped = append(capped, make([]byte, 25<<10)...)
	for _, b := range [][]byte{{1, 0x80, 0x80, 0x80, 0x1e, 0, 1, 'a', 0}, capped} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := read(b); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "byte total") {
			t.Errorf("claim %x... accepted or misreported: %v", b[:6], err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("rejecting claim %x... allocated %d bytes", b[:6], d)
		}
	}
}

// TestTableDecodeAllocs: decoding a string table costs the same fixed
// number of allocations whatever its entry count, because every entry
// is built into one string.
func TestTableDecodeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		b, err := wire.Encode(1, func(w *wire.Writer) {
			for i := 0; i < n; i++ {
				w.Str(fmt.Sprintf("http://ics.forth.gr/SON/syn#p%d", i))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			r := wire.NewReader(b)
			r.Format(1)
			r.Table()
			for i := 0; i < n; i++ {
				r.Ref()
			}
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	if one > 3 {
		t.Errorf("decoding a 1-entry table costs %v allocations; want ≤ 3", one)
	}
	for _, n := range []int{10, 100, 1000} {
		if got := allocs(n); got != one {
			t.Errorf("decoding a %d-entry table costs %v allocations; a 1-entry table %v", n, got, one)
		}
	}
}

// FuzzQueryCodecs decodes arbitrary bytes as every query-path body —
// plan, routing request, annotated reply, statistics — never panicking,
// and checks that a body that decodes re-encodes to itself. It then
// round-trips a plan, an annotation and a statistics payload generated
// from the fuzzer's values (strings cut from the input, so any byte can
// appear in them). The corpus is seeded with the bodies of a real traced
// paper query.
func FuzzQueryCodecs(f *testing.F) {
	traced := realBodies(f)
	for _, c := range codecs {
		for _, b := range traced.of(c.name) {
			f.Add(b, int64(len(b)))
		}
	}
	f.Add([]byte{}, int64(-1))
	for _, c := range codecs {
		for _, bt := range badTables {
			f.Add(body(traced.of(c.name)[0][0], bt.tab, 0, 0, 0, 0), int64(len(bt.tab)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		for _, c := range codecs {
			v, err := c.decode(data)
			if err != nil {
				continue
			}
			if again, err := c.encode(v); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%s %x re-encodes as %x, %v", c.name, data, again, err)
			}
		}
		g := gener{rng: rand.New(rand.NewSource(seed)), src: data}
		for i, v := range []any{g.plan(), g.query(), g.annotated(), g.stats()} {
			b, err := codecs[i].encode(v)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", codecs[i].name, v, err)
			}
			back, err := codecs[i].decode(b)
			if err != nil || !reflect.DeepEqual(back, v) {
				t.Fatalf("%s round trip = %+v, %v; want %+v", codecs[i].name, back, err, v)
			}
		}
	})
}

// gener builds random codec values whose strings are cut from src.
type gener struct {
	rng *rand.Rand
	src []byte
}

func (g gener) str() string {
	if len(g.src) == 0 || g.rng.Intn(8) == 0 {
		return ""
	}
	i := g.rng.Intn(len(g.src))
	return string(g.src[i : i+g.rng.Intn(min(len(g.src)-i, 12)+1)])
}

func (g gener) path() pattern.PathPattern {
	return pattern.PathPattern{ID: g.str(), SubjectVar: g.str(), ObjectVar: g.str(),
		Property: rdf.IRI(g.str()), Domain: rdf.IRI(g.str()), Range: rdf.IRI(g.str())}
}

// paths returns n ≥ min path patterns, nil when n is 0.
func (g gener) paths(min int) []pattern.PathPattern {
	var out []pattern.PathPattern
	for i := min + g.rng.Intn(3); i > 0; i-- {
		out = append(out, g.path())
	}
	return out
}

func (g gener) query() *pattern.QueryPattern {
	q := &pattern.QueryPattern{SchemaName: g.str(), Patterns: g.paths(0)}
	for i := g.rng.Intn(3); i > 0; i-- {
		q.Projections = append(q.Projections, g.str())
	}
	return q
}

func (g gener) node(depth int) plan.Node {
	if depth >= 3 || g.rng.Intn(3) == 0 {
		return &plan.Scan{Peer: pattern.PeerID(g.str()), Patterns: g.paths(1)}
	}
	inputs := make([]plan.Node, 1+g.rng.Intn(3))
	for i := range inputs {
		inputs[i] = g.node(depth + 1)
	}
	if g.rng.Intn(2) == 0 {
		return &plan.Union{Inputs: inputs}
	}
	return &plan.Join{Inputs: inputs}
}

func (g gener) plan() *plan.Plan {
	p := &plan.Plan{Root: g.node(0)}
	if g.rng.Intn(2) == 0 {
		p.Query = g.query()
	}
	return p
}

func (g gener) annotated() *pattern.Annotated {
	a := &pattern.Annotated{Query: g.query(), Peers: map[string][]pattern.PeerID{},
		Rewrites: map[string][]pattern.PathPattern{}}
	for i := g.rng.Intn(4); i > 0; i-- {
		var peers []pattern.PeerID
		for j := g.rng.Intn(3); j > 0; j-- {
			peers = append(peers, pattern.PeerID(g.str()))
		}
		a.Peers[g.str()] = peers
		a.Rewrites[g.str()] = g.paths(0)
	}
	return a
}

func (g gener) stats() *stats.PeerStats {
	ps := &stats.PeerStats{Peer: pattern.PeerID(g.str()), Slots: int(g.rng.Int63()) - g.rng.Intn(4),
		Load: -g.rng.Intn(3), PropertyCard: map[rdf.IRI]int{}, DistinctSubjects: map[rdf.IRI]int{},
		DistinctObjects: map[rdf.IRI]int{}}
	for _, m := range []map[rdf.IRI]int{ps.PropertyCard, ps.DistinctSubjects, ps.DistinctObjects} {
		for i := g.rng.Intn(4); i > 0; i-- {
			m[rdf.IRI(g.str())] = g.rng.Intn(1000) - 10
		}
	}
	return ps
}
