package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
// reply, and the Stats payloads of chan.packet.
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
			if p.Type == channel.Stats {
				out.stats = append(out.stats, bytes.Clone(p.Payload))
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

// TestCodecsRejectMalformed: every body the traced paper query sent
// decodes and re-encodes to the same bytes, while every proper prefix of
// one, a body with trailing bytes, counts larger than the input,
// unsorted or duplicate table strings and map keys, an unused table
// string and plan nesting past the depth bound are all rejected with
// wire.ErrMalformed.
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
		// A table claiming 2^40 strings in a few bytes.
		reject(c, "table count past the input", []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'a'})
		reject(c, "unsorted table", []byte{1, 2, 1, 'b', 1, 'a', 0, 0})
		reject(c, "duplicate table string", []byte{1, 2, 1, 'a', 1, 'a', 0, 0})
		reject(c, "non-canonical varint", []byte{1, 0x81, 0x00, 1, 'a'})
	}
	plans, annotations, statsC := codecs[0], codecs[2], codecs[3]

	// Counts larger than the input, inside the body.
	reject(plans, "scan pattern count past the input", []byte{1, 1, 1, 'P', 0, 1, 0, 0x7f})
	reject(plans, "union input count past the input", []byte{1, 0, 0, 2, 0x7f, 1})
	reject(statsC, "map count past the input", []byte{1, 1, 1, 'P', 0, 0x7f, 0})

	// Stats map keys must increase: table [P a b], peer P, keys b then a.
	unsorted := []byte{1, 3, 1, 'P', 1, 'a', 1, 'b', 0, 2, 2, 5, 1, 6, 0, 0, 0, 0}
	reject(statsC, "unsorted map keys", unsorted)
	dup := []byte{1, 3, 1, 'P', 1, 'a', 1, 'b', 0, 3, 1, 5, 1, 6, 2, 7, 0, 0, 0, 0}
	reject(statsC, "duplicate map key", dup)
	sorted := []byte{1, 3, 1, 'P', 1, 'a', 1, 'b', 0, 2, 1, 5, 2, 6, 0, 0, 0, 0}
	if ps, err := stats.UnmarshalPeerStats(sorted); err != nil || ps.PropertyCard["a"] != 5 || ps.PropertyCard["b"] != 6 {
		t.Errorf("sorted stats body = %+v, %v", ps, err)
	}
	reject(statsC, "unused table string", []byte{1, 2, 1, 'P', 1, 'z', 0, 0, 0, 0, 0, 0})

	// Annotation peers map with keys out of order: table [Q1 Q2 X] ...
	var q bytes.Buffer
	q.Write([]byte{1, 3, 2, 'Q', '1', 2, 'Q', '2', 1, 'X'})
	q.Write([]byte{2, 0, 1, 2, 2, 1, 0, 0, 0, 0}) // schema "X", no patterns, projection "X"; peers Q2, Q1
	reject(annotations, "unsorted annotation keys", q.Bytes())

	// Plan nesting: a chain of one-input unions over a scan.
	deep := func(depth int) []byte {
		b := []byte{1, 1, 1, 'P', 0} // table ["P"], no query
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
	reject(plans, "empty union", []byte{1, 0, 0, 2, 0})
	reject(plans, "unknown node kind", []byte{1, 0, 0, 7})
	reject(plans, "bad query flag", []byte{1, 1, 1, 'P', 2, 1, 0, 1, 0, 0, 0, 0, 0, 0})
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
