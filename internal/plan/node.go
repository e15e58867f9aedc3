// Package plan implements SQPeer's distributed query plans (paper §2.4):
// an algebra of peer-located scans, unions (horizontal distribution) and
// joins (vertical distribution), possibly containing holes (`@?`) for path
// patterns no known peer covers; the Query-Processing Algorithm that
// compiles an annotated query pattern into such a plan; and a binary wire
// form so plans can travel between peers.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"sqpeer/internal/pattern"
)

// HolePeer is the peer id of a hole: a subquery whose responsible peer is
// unknown (rendered "@?" as in the paper).
const HolePeer pattern.PeerID = "?"

// Node is a distributed query plan node.
type Node interface {
	// String renders the node in the paper's algebraic notation, e.g.
	// "⋈(∪(Q1@P1, Q1@P2), Q2@P3)". The rendering is canonical: equal
	// plans render identically.
	String() string
	// Children returns the node's inputs (nil for leaves).
	Children() []Node
	// clone returns a deep copy.
	clone() Node
}

// Scan is a leaf: a conjunctive subquery evaluated entirely at one peer.
// A single-pattern Scan is the paper's "PP@Px"; a multi-pattern Scan is
// what Transformation Rules 1 and 2 produce — several successive path
// patterns pushed to the same peer, which joins them locally.
type Scan struct {
	// Patterns are the path patterns the peer evaluates and joins locally.
	Patterns []pattern.PathPattern
	// Peer executes the subquery; HolePeer marks a hole.
	Peer pattern.PeerID
}

// NewScan builds a single-pattern scan at a peer.
func NewScan(pp pattern.PathPattern, peer pattern.PeerID) *Scan {
	return &Scan{Patterns: []pattern.PathPattern{pp}, Peer: peer}
}

// NewHole builds a hole for a path pattern (the "PP@?" of the paper).
func NewHole(pp pattern.PathPattern) *Scan { return NewScan(pp, HolePeer) }

// IsHole reports whether the scan's peer is unknown.
func (s *Scan) IsHole() bool { return s.Peer == HolePeer || s.Peer == "" }

// PatternIDs returns the ids of the scan's patterns in order.
func (s *Scan) PatternIDs() []string {
	out := make([]string, len(s.Patterns))
	for i, p := range s.Patterns {
		out[i] = p.ID
	}
	return out
}

// String renders "Q1@P1" or, for merged scans, "[Q1⋈Q2]@P1".
func (s *Scan) String() string {
	peer := string(s.Peer)
	if s.IsHole() {
		peer = "?"
	}
	if len(s.Patterns) == 1 {
		return s.Patterns[0].ID + "@" + peer
	}
	return "[" + strings.Join(s.PatternIDs(), "⋈") + "]@" + peer
}

// Children returns nil: scans are leaves.
func (s *Scan) Children() []Node { return nil }

func (s *Scan) clone() Node {
	cp := &Scan{Peer: s.Peer}
	cp.Patterns = append(cp.Patterns, s.Patterns...)
	return cp
}

// Union is the n-ary union of subplans — horizontal distribution: the same
// path pattern answered by several peers, results merged for completeness.
type Union struct {
	Inputs []Node
}

// NewUnion builds a union, flattening nested unions, deduplicating
// identical inputs (union is idempotent) and collapsing a single input to
// itself.
func NewUnion(inputs ...Node) Node {
	var flat []Node
	seen := map[string]bool{}
	add := func(n Node) {
		key := n.String()
		if !seen[key] {
			seen[key] = true
			flat = append(flat, n)
		}
	}
	for _, in := range inputs {
		if u, ok := in.(*Union); ok {
			for _, c := range u.Inputs {
				add(c)
			}
		} else if in != nil {
			add(in)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Union{Inputs: flat}
}

// String renders "∪(a, b, ...)".
func (u *Union) String() string { return "∪(" + joinNodes(u.Inputs) + ")" }

// Children returns the union's inputs.
func (u *Union) Children() []Node { return u.Inputs }

func (u *Union) clone() Node {
	cp := &Union{Inputs: make([]Node, len(u.Inputs))}
	for i, in := range u.Inputs {
		cp.Inputs[i] = in.clone()
	}
	return cp
}

// Join is the n-ary natural join of subplans — vertical distribution:
// different path patterns of the query combined on their shared variables
// for correctness.
type Join struct {
	Inputs []Node
}

// NewJoin builds a join, flattening nested joins and collapsing a single
// input to itself.
func NewJoin(inputs ...Node) Node {
	var flat []Node
	for _, in := range inputs {
		if j, ok := in.(*Join); ok {
			flat = append(flat, j.Inputs...)
		} else if in != nil {
			flat = append(flat, in)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Join{Inputs: flat}
}

// String renders "⋈(a, b, ...)".
func (j *Join) String() string { return "⋈(" + joinNodes(j.Inputs) + ")" }

// Children returns the join's inputs.
func (j *Join) Children() []Node { return j.Inputs }

func (j *Join) clone() Node {
	cp := &Join{Inputs: make([]Node, len(j.Inputs))}
	for i, in := range j.Inputs {
		cp.Inputs[i] = in.clone()
	}
	return cp
}

func joinNodes(ns []Node) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = n.String()
	}
	return strings.Join(parts, ", ")
}

// Plan is a complete distributed plan: the root node plus the query it
// answers (carrying projections and the join tree).
type Plan struct {
	// Root is the plan tree.
	Root Node
	// Query is the originating query pattern.
	Query *pattern.QueryPattern
}

// String renders the plan tree.
func (p *Plan) String() string {
	if p == nil || p.Root == nil {
		return "<empty plan>"
	}
	return p.Root.String()
}

// Clone returns an independent deep copy of the plan.
func (p *Plan) Clone() *Plan {
	return &Plan{Root: p.Root.clone(), Query: p.Query}
}

// Walk visits every node of the tree depth-first, parents before children.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Scans returns every scan leaf of the plan in visit order.
func Scans(n Node) []*Scan {
	var out []*Scan
	Walk(n, func(x Node) {
		if s, ok := x.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}

// Holes returns the scans whose peer is unknown.
func Holes(n Node) []*Scan {
	var out []*Scan
	for _, s := range Scans(n) {
		if s.IsHole() {
			out = append(out, s)
		}
	}
	return out
}

// HasHoles reports whether the plan still needs routing information — the
// partial-plan condition of §2.4 and §3.2.
func HasHoles(n Node) bool { return len(Holes(n)) > 0 }

// Peers returns the distinct peers the plan touches (holes excluded),
// sorted. One communication channel is deployed per peer (§2.4: "only one
// channel is of course created" per contributing peer).
func Peers(n Node) []pattern.PeerID {
	set := map[pattern.PeerID]struct{}{}
	for _, s := range Scans(n) {
		if !s.IsHole() {
			set[s.Peer] = struct{}{}
		}
	}
	out := make([]pattern.PeerID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountSubplans returns the number of scan leaves — the subqueries that
// must be sent to peers, which Transformation Rules 1 and 2 reduce.
func CountSubplans(n Node) int { return len(Scans(n)) }

// Equal reports whether two plans are structurally identical, comparing
// canonical renderings.
func Equal(a, b Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}

// Indent renders the plan tree one node per line with indentation, for
// the CLI and logs.
func Indent(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(x Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch v := x.(type) {
		case *Scan:
			fmt.Fprintf(&b, "%s%s\n", pad, v)
		case *Union:
			fmt.Fprintf(&b, "%s∪\n", pad)
			for _, c := range v.Inputs {
				rec(c, depth+1)
			}
		case *Join:
			fmt.Fprintf(&b, "%s⋈\n", pad)
			for _, c := range v.Inputs {
				rec(c, depth+1)
			}
		default:
			fmt.Fprintf(&b, "%s%s\n", pad, x)
		}
	}
	rec(n, 0)
	return b.String()
}
