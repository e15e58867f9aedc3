// Package optimizer implements SQPeer's compile-time and run-time query
// optimization (paper §2.5): the distribution of joins over unions that
// turns Figure 3's Plan 1 into Figure 4's Plan 2, the two transformation
// rules that merge subplans answerable by the same peer (Plan 2 → Plan 3),
// the statistics-driven choice among data / query / hybrid shipping
// (Figure 5), and the replanning primitive used when peers fail or leave.
package optimizer

import (
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
)

// MaxDistributionBranches caps the union fan-out DistributeJoinsOverUnions
// may create; beyond it the join is left in place (the rewrite is a
// heuristic, not a requirement). The merge gate in exposesMerge does not
// replace it: when many peers of two wide unions hold both sides of the
// join (as the peers joining perfbench's churn_update workload hold both
// patterns of their window), the join is mergeable, yet full expansion
// ships one merged subplan per shared peer while the single scans are
// still shipped for the cross pairs. Without the cap that workload sent
// ~5% more messages per query (552.5 → 578.8) and its queries per
// CPU-second halved (12.2 → 6.0).
const MaxDistributionBranches = 1024

// DistributeJoinsOverUnions pushes joins below unions:
//
//	⋈(∪(Q11..Q1n), ∪(Q21..Q2m)) → ∪(⋈(Q11,Q21), ⋈(Q11,Q22), ..., ⋈(Q1n,Q2m))
//
// The paper motivates it by smaller intermediate results, pipelining, and
// exposing same-peer subplans for the transformation rules. Only the last
// changes what gets shipped, so a join is expanded only when it happens:
// some peer has non-hole scans in two different inputs of the join whose
// patterns share a variable (see exposesMerge). Otherwise the join stays
// above its unions and the executor runs one hash join over the gathered
// unions instead of n×m tiny ones; the shipped subplans are the same
// either way. The rewrite is applied bottom-up to every join in the tree.
func DistributeJoinsOverUnions(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.Scan:
		return v
	case *plan.Union:
		inputs := make([]plan.Node, len(v.Inputs))
		for i, in := range v.Inputs {
			inputs[i] = DistributeJoinsOverUnions(in)
		}
		return plan.NewUnion(inputs...)
	case *plan.Join:
		inputs := make([]plan.Node, len(v.Inputs))
		for i, in := range v.Inputs {
			inputs[i] = DistributeJoinsOverUnions(in)
		}
		if !exposesMerge(inputs) {
			return plan.NewJoin(inputs...)
		}
		// Cartesian expansion over the union inputs.
		branches := [][]plan.Node{{}}
		total := 1
		for _, in := range inputs {
			alts := alternatives(in)
			total *= len(alts)
			if total > MaxDistributionBranches {
				// Too wide: keep the (already recursed) join as is.
				return plan.NewJoin(inputs...)
			}
			var next [][]plan.Node
			for _, br := range branches {
				for _, alt := range alts {
					nb := make([]plan.Node, len(br), len(br)+1)
					copy(nb, br)
					nb = append(nb, alt)
					next = append(next, nb)
				}
			}
			branches = next
		}
		if len(branches) == 1 {
			return plan.NewJoin(branches[0]...)
		}
		joins := make([]plan.Node, len(branches))
		for i, br := range branches {
			joins[i] = plan.NewJoin(br...)
		}
		return plan.NewUnion(joins...)
	default:
		return n
	}
}

// alternatives lists the branches a join input contributes to the
// cartesian expansion: a union's inputs, or the input itself.
func alternatives(n plan.Node) []plan.Node {
	if u, ok := n.(*plan.Union); ok {
		return u.Inputs
	}
	return []plan.Node{n}
}

// exposesMerge reports whether expanding a join over its union inputs
// would place two connected non-hole scans of one peer, taken from
// different inputs, in the same branch — the scans mergeSamePeerScans
// merges. A branch joins one alternative per input and NewJoin flattens
// nested joins, so an alternative contributes itself if it is a scan and
// its direct scan inputs if it is a join.
func exposesMerge(inputs []plan.Node) bool {
	type seen struct {
		input    int
		patterns []pattern.PathPattern
	}
	byPeer := map[pattern.PeerID][]seen{}
	for i, in := range inputs {
		for _, alt := range alternatives(in) {
			leaves := []plan.Node{alt}
			if j, ok := alt.(*plan.Join); ok {
				leaves = j.Inputs
			}
			for _, leaf := range leaves {
				s, ok := leaf.(*plan.Scan)
				if !ok || s.IsHole() {
					continue
				}
				for _, o := range byPeer[s.Peer] {
					if o.input != i && connectedTo(o.patterns, s.Patterns) {
						return true
					}
				}
				byPeer[s.Peer] = append(byPeer[s.Peer], seen{i, s.Patterns})
			}
		}
	}
	return false
}

// ApplyTransformationRules merges, inside every join, the scans located at
// the same peer into a single multi-pattern scan the peer evaluates and
// joins locally. This subsumes both of the paper's rules:
//
//	Rule 1: ⋈(Q1@Pi, ..., Qn@Pi)        → Q@Pi
//	Rule 2: ⋈(⋈(QP, Q1@Pi), Q2@Pi)      → ⋈(QP, Q@Pi)
//
// (nested joins flatten into n-ary joins, after which Rule 2 is Rule 1 on
// a subset of inputs). Scans are only merged when their patterns are
// connected through shared variables, so a peer never evaluates a local
// cartesian product. Holes are never merged.
func ApplyTransformationRules(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.Scan:
		return v
	case *plan.Union:
		inputs := make([]plan.Node, len(v.Inputs))
		for i, in := range v.Inputs {
			inputs[i] = ApplyTransformationRules(in)
		}
		return plan.NewUnion(inputs...)
	case *plan.Join:
		inputs := make([]plan.Node, len(v.Inputs))
		for i, in := range v.Inputs {
			inputs[i] = ApplyTransformationRules(in)
		}
		flat := plan.NewJoin(inputs...)
		j, ok := flat.(*plan.Join)
		if !ok {
			return flat
		}
		return mergeSamePeerScans(j)
	default:
		return n
	}
}

// mergeSamePeerScans greedily merges connected same-peer scans among a
// join's inputs.
func mergeSamePeerScans(j *plan.Join) plan.Node {
	var out []plan.Node
	// Group scan inputs by peer, preserving order; pass non-scan inputs
	// through.
	merged := map[int]bool{}
	for i, in := range j.Inputs {
		if merged[i] {
			continue
		}
		s, ok := in.(*plan.Scan)
		if !ok || s.IsHole() {
			out = append(out, in)
			continue
		}
		acc := append([]pattern.PathPattern{}, s.Patterns...)
		for k := i + 1; k < len(j.Inputs); k++ {
			if merged[k] {
				continue
			}
			s2, ok := j.Inputs[k].(*plan.Scan)
			if !ok || s2.IsHole() || s2.Peer != s.Peer {
				continue
			}
			if !connectedTo(acc, s2.Patterns) {
				continue
			}
			acc = append(acc, s2.Patterns...)
			merged[k] = true
		}
		out = append(out, &plan.Scan{Patterns: acc, Peer: s.Peer})
	}
	return plan.NewJoin(out...)
}

// connectedTo reports whether any pattern in b shares a variable with any
// pattern in a.
func connectedTo(a, b []pattern.PathPattern) bool {
	for _, pa := range a {
		for _, pb := range b {
			if pa.SharesVar(pb) {
				return true
			}
		}
	}
	return false
}

// Options selects which compile-time rewrites Optimize applies; the
// zero value applies everything (the paper's full pipeline).
type Options struct {
	// SkipDistribution leaves joins above unions (ablation).
	SkipDistribution bool
	// SkipMergeRules leaves same-peer scans separate (ablation).
	SkipMergeRules bool
}

// Optimize applies the compile-time rewrite pipeline to a plan, returning
// a new plan (the input is not modified). For Figure 3's Plan 1 with
// default options it produces Figure 4's Plan 3.
func Optimize(p *plan.Plan, opts Options) *plan.Plan {
	root := p.Clone().Root
	if !opts.SkipDistribution {
		root = DistributeJoinsOverUnions(root)
	}
	if !opts.SkipMergeRules {
		root = ApplyTransformationRules(root)
	}
	return &plan.Plan{Root: root, Query: p.Query}
}
