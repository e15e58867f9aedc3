// Package pattern implements SQPeer's uniform intensional formalism: the
// semantic query patterns extracted from RQL queries and the active-schemas
// derived from RVL advertisements are both graphs of path patterns over a
// community RDF/S schema. Representing requests and contents the same way
// is what lets the routing layer reuse query/view subsumption (paper §2.2).
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"sqpeer/internal/rdf"
)

// PeerID names a peer in the P2P system. It is defined here, at the bottom
// of the dependency graph, because annotated query patterns associate path
// patterns with peers.
type PeerID string

// PathPattern is one edge of a semantic query pattern: two typed resource
// variables related through a schema property, e.g. {X;C1} prop1 {Y;C2}.
// The same structure describes one populated property of an active-schema,
// with the variable names irrelevant.
type PathPattern struct {
	// ID names the pattern within its query (e.g. "Q1"); active-schema
	// patterns carry derived ids. IDs are unique within one QueryPattern.
	ID string `json:"id"`
	// SubjectVar and ObjectVar are the variable names at the two ends.
	SubjectVar string `json:"subjectVar"`
	ObjectVar  string `json:"objectVar"`
	// Property is the schema property traversed.
	Property rdf.IRI `json:"property"`
	// Domain and Range are the end-point classes. They come from an
	// explicit class restriction in the query ({X;C5}) or, absent one,
	// from the property's schema definition (paper §2.1).
	Domain rdf.IRI `json:"domain"`
	Range  rdf.IRI `json:"range"`
}

// String renders the pattern in the paper's {X;C}prop{Y;C} notation.
func (p PathPattern) String() string {
	return fmt.Sprintf("{%s;%s}%s{%s;%s}",
		p.SubjectVar, p.Domain.Local(), p.Property.Local(), p.ObjectVar, p.Range.Local())
}

// SameShape reports whether two patterns traverse the same property with
// the same end-point classes, ignoring ids and variable names. Active-
// schema equality is shape equality.
func (p PathPattern) SameShape(q PathPattern) bool {
	return p.Property == q.Property && p.Domain == q.Domain && p.Range == q.Range
}

// Vars returns the pattern's variable names (subject, object).
func (p PathPattern) Vars() (string, string) { return p.SubjectVar, p.ObjectVar }

// SharesVar reports whether two patterns share a variable name, i.e. are
// joined in the conjunctive query.
func (p PathPattern) SharesVar(q PathPattern) bool {
	return p.SubjectVar == q.SubjectVar || p.SubjectVar == q.ObjectVar ||
		p.ObjectVar == q.SubjectVar || p.ObjectVar == q.ObjectVar
}

// QueryPattern is a conjunctive semantic query pattern: a set of path
// patterns joined through shared variables, plus the projected variables
// (marked "*" in the paper's figures).
type QueryPattern struct {
	// SchemaName identifies the community schema (SON) the pattern is
	// expressed against.
	SchemaName string
	// Patterns are the path patterns, in query order; the first is the
	// root of the join tree the query-processing algorithm walks.
	Patterns []PathPattern
	// Projections are the variables whose bindings the query returns.
	Projections []string
}

// Pattern returns the path pattern with the given id.
func (q *QueryPattern) Pattern(id string) (PathPattern, bool) {
	for _, p := range q.Patterns {
		if p.ID == id {
			return p, true
		}
	}
	return PathPattern{}, false
}

// Variables returns the sorted set of variable names used by the pattern.
func (q *QueryPattern) Variables() []string {
	set := map[string]struct{}{}
	for _, p := range q.Patterns {
		set[p.SubjectVar] = struct{}{}
		set[p.ObjectVar] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural well-formedness: at least one path pattern,
// unique pattern ids, projections referring to existing variables, and
// connectivity of the join graph (the paper's conjunctive fragment has no
// cartesian products).
func (q *QueryPattern) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("pattern: query pattern has no path patterns")
	}
	ids := map[string]bool{}
	for _, p := range q.Patterns {
		if p.ID == "" {
			return fmt.Errorf("pattern: path pattern %s has empty id", p)
		}
		if ids[p.ID] {
			return fmt.Errorf("pattern: duplicate path pattern id %q", p.ID)
		}
		ids[p.ID] = true
		if p.SubjectVar == "" || p.ObjectVar == "" {
			return fmt.Errorf("pattern: path pattern %s has unnamed variables", p.ID)
		}
		if p.Property == "" {
			return fmt.Errorf("pattern: path pattern %s has no property", p.ID)
		}
	}
	vars := map[string]bool{}
	for _, v := range q.Variables() {
		vars[v] = true
	}
	for _, proj := range q.Projections {
		if !vars[proj] {
			return fmt.Errorf("pattern: projection %q is not a query variable", proj)
		}
	}
	if _, err := q.JoinTree(); err != nil {
		return err
	}
	return nil
}

// String renders the query pattern compactly, e.g.
// "Q1:{X;C1}prop1{Y;C2} ⋈ Q2:{Y;C2}prop2{Z;C3} → X,Y".
func (q *QueryPattern) String() string {
	parts := make([]string, len(q.Patterns))
	for i, p := range q.Patterns {
		parts[i] = p.ID + ":" + p.String()
	}
	s := strings.Join(parts, " ⋈ ")
	if len(q.Projections) > 0 {
		s += " → " + strings.Join(q.Projections, ",")
	}
	return s
}

// JoinTree computes a spanning tree of the join graph rooted at the first
// path pattern, in breadth-first order: this is the Root/children(PP)
// structure the paper's query-processing algorithm recurses over. It
// fails when the join graph is disconnected.
func (q *QueryPattern) JoinTree() (*JoinTree, error) {
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("pattern: empty query pattern has no join tree")
	}
	tree := &JoinTree{
		Root:     q.Patterns[0].ID,
		children: map[string][]string{},
		patterns: map[string]PathPattern{},
	}
	for _, p := range q.Patterns {
		tree.patterns[p.ID] = p
	}
	visited := map[string]bool{q.Patterns[0].ID: true}
	queue := []string{q.Patterns[0].ID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curPat := tree.patterns[cur]
		// Visit in declaration order for determinism.
		for _, p := range q.Patterns {
			if visited[p.ID] || !curPat.SharesVar(p) {
				continue
			}
			visited[p.ID] = true
			tree.children[cur] = append(tree.children[cur], p.ID)
			queue = append(queue, p.ID)
		}
	}
	if len(visited) != len(q.Patterns) {
		var missing []string
		for _, p := range q.Patterns {
			if !visited[p.ID] {
				missing = append(missing, p.ID)
			}
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("pattern: join graph disconnected; unreachable patterns: %s",
			strings.Join(missing, ","))
	}
	return tree, nil
}

// JoinTree is the rooted spanning tree of a query pattern's join graph.
type JoinTree struct {
	// Root is the id of the root path pattern.
	Root     string
	children map[string][]string
	patterns map[string]PathPattern
}

// Children returns the child pattern ids of the given pattern id, in
// deterministic order.
func (t *JoinTree) Children(id string) []string { return t.children[id] }

// Pattern returns the path pattern with the given id.
func (t *JoinTree) Pattern(id string) PathPattern { return t.patterns[id] }

// Walk visits the tree depth-first from the root, calling fn with each
// pattern id and its depth.
func (t *JoinTree) Walk(fn func(id string, depth int)) {
	var rec func(id string, depth int)
	rec = func(id string, depth int) {
		fn(id, depth)
		for _, c := range t.children[id] {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
}
