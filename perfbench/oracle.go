package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"sqpeer/internal/exec"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// oracle answers queries centrally: rql.Eval over the union of the live
// bases. It records the triples each live peer holds, so a departure
// removes exactly the triples no other live peer still holds.
type oracle struct {
	schema *rdf.Schema
	union  *rdf.Base
	held   map[pattern.PeerID]map[rdf.Triple]bool
	count  map[rdf.Triple]int // live peers holding each triple
	cache  map[string]*expected
}

func newOracle(schema *rdf.Schema) *oracle {
	return &oracle{schema: schema, union: rdf.NewBase(), held: map[pattern.PeerID]map[rdf.Triple]bool{},
		count: map[rdf.Triple]int{}, cache: map[string]*expected{}}
}

// add records that peer id holds the triples, which join the union.
func (o *oracle) add(id pattern.PeerID, ts []rdf.Triple) {
	h := o.held[id]
	if h == nil {
		h = map[rdf.Triple]bool{}
		o.held[id] = h
	}
	for _, t := range ts {
		if h[t] {
			continue
		}
		h[t] = true
		if o.count[t] == 0 {
			o.union.Add(t)
		}
		o.count[t]++
	}
}

// depart forgets peer id's triples; those no other live peer holds
// leave the union.
func (o *oracle) depart(id pattern.PeerID) {
	for t := range o.held[id] {
		if o.count[t]--; o.count[t] == 0 {
			delete(o.count, t)
			o.union.Remove(t)
		}
	}
	delete(o.held, id)
}

// expect returns the centralized answer to the query text over the
// current union, evaluating only when the union changed since the last
// time this query was asked.
func (o *oracle) expect(text string) (*expected, error) {
	if e, ok := o.cache[text]; ok && e.gen == o.union.Gen() {
		return e, nil
	}
	c, err := rql.ParseAndAnalyze(text, o.schema)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rs, err := rql.Eval(c, o.union)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	e := &expected{gen: o.union.Gen()}
	for _, r := range rs.Sorted() {
		e.rows = append(e.rows, fingerprint(r))
	}
	sort.Slice(e.rows, func(i, j int) bool { return e.rows[i] < e.rows[j] })
	o.cache[text] = e
	return e, nil
}

// expectations replays the script's effect on the live bases and
// returns each query's centralized answer, indexed like the script (nil
// for the other operations). It runs before any SON is built, so while
// the program is timed the oracle's only state is these fingerprints,
// and the collector does not pay for a second copy of the data.
func expectations(in *inputs) ([]*expected, error) {
	o := newOracle(in.syn.Schema)
	for _, id := range in.sharing {
		o.add(id, in.data[id])
	}
	out := make([]*expected, len(in.script))
	for k, step := range in.script {
		switch step.kind {
		case opQuery:
			e, err := o.expect(in.syn.RQL(step.start, 2))
			if err != nil {
				return nil, err
			}
			out[k] = e
		case opJoin, opUpdate:
			o.add(step.peer, chainTriples(in.syn, step.start, 2, step.chain, step.n))
		case opDepart:
			o.depart(step.peer)
		}
	}
	return out, nil
}

// expected is one query's centralized answer: a fingerprint of each
// rendered row, sorted.
type expected struct {
	gen  uint64
	rows []uint64
}

func (e *expected) has(f uint64) bool {
	i := sort.Search(len(e.rows), func(i int) bool { return e.rows[i] >= f })
	return i < len(e.rows) && e.rows[i] == f
}

// fingerprint is a 64-bit FNV-1a hash of a rendered row.
func fingerprint(row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return h.Sum64()
}

// verdict is the check of one distributed answer against the oracle.
type verdict struct {
	wrong        bool    // a row outside the answer, or rows missing unannotated
	completeness float64 // returned rows ÷ centralized rows
	reason       string
}

// judge checks a distributed answer. A complete answer must equal the
// centralized one; a partial one (only legal under faults) must be a
// subset of it and name the patterns it could not answer.
func judge(e *expected, res *exec.Result) verdict {
	got := res.Rows.Sorted()
	v := verdict{completeness: 1}
	if len(e.rows) > 0 {
		v.completeness = float64(len(got)) / float64(len(e.rows))
	}
	seen := make(map[uint64]bool, len(got))
	for _, r := range got {
		f := fingerprint(r)
		if !e.has(f) {
			return verdict{wrong: true, completeness: v.completeness, reason: "row outside the centralized answer: " + r}
		}
		if seen[f] {
			return verdict{wrong: true, completeness: v.completeness, reason: "duplicate row: " + r}
		}
		seen[f] = true
	}
	if len(got) < len(e.rows) {
		if res.Completeness.Complete || len(res.Completeness.Unanswered) == 0 {
			return verdict{wrong: true, completeness: v.completeness,
				reason: fmt.Sprintf("%d of %d rows missing with no unanswered pattern annotated", len(e.rows)-len(got), len(e.rows))}
		}
	}
	return v
}
