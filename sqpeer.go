// Package sqpeer is a from-scratch reproduction of the ICS-FORTH SQPeer
// middleware for semantic query routing and processing in peer-to-peer
// database systems (Kokkinidis & Christophides, 2004).
//
// SQPeer organizes peers holding RDF/S description bases into Semantic
// Overlay Networks (SONs). Peers advertise the populated subset of a
// community schema as an active-schema (an RVL view); conjunctive RQL
// queries are abstracted into semantic query patterns; a routing
// algorithm matches patterns against advertisements using sound and
// complete query/view subsumption (including rdfs:subClassOf /
// rdfs:subPropertyOf reasoning); annotated patterns compile into
// distributed plans — unions for horizontal data distribution, joins for
// vertical — executed over ubQL-style channels with compile-time
// (join/union distribution, same-peer merging, data/query/hybrid
// shipping) and run-time (replanning around failed peers) optimization.
// Both the hybrid (super-peer) and ad-hoc (self-adaptive, interleaved
// routing/processing) architectures of the paper are implemented, plus a
// Gnutella-style flooding baseline for the evaluation harness. Both SON
// architectures answer on the same executor: they differ only in how the
// query pattern is routed.
//
// This package is the public facade: it re-exports the stable surface of
// the internal packages so applications can depend on a single import.
//
//	net := sqpeer.NewNetwork()
//	son := sqpeer.NewHybridSON(net, schema)
//	sp, _ := son.AddSuperPeer("SP1")
//	p1, _ := son.AddSimplePeer("P1", base1, "SP1")
//	rows, err := son.Query("P1", `SELECT X, Y FROM {X}n1:prop1{Y}, {Y}n1:prop2{Z}
//	    USING NAMESPACE n1 = &http://ics.forth.gr/SON/n1#&`)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// per-figure experiment index.
package sqpeer

import (
	"io"

	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
	"sqpeer/internal/rvl"
	"sqpeer/internal/stats"
	"sqpeer/internal/swim"
)

// RDF/S data model (package rdf).
type (
	// IRI identifies a resource, class or property.
	IRI = rdf.IRI
	// Term is an RDF term: IRI, literal or blank node.
	Term = rdf.Term
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Schema is a community RDF/S schema with subsumption reasoning.
	Schema = rdf.Schema
	// Base is an indexed in-memory RDF description base.
	Base = rdf.Base
	// Namespaces maps prefixes to namespace IRIs.
	Namespaces = rdf.Namespaces
	// BaseStats summarizes a base's extension.
	BaseStats = rdf.BaseStats
)

// Intensional formalism (package pattern).
type (
	// PeerID names a peer.
	PeerID = pattern.PeerID
	// PathPattern is one edge of a semantic query pattern.
	PathPattern = pattern.PathPattern
	// QueryPattern is a conjunctive semantic query pattern.
	QueryPattern = pattern.QueryPattern
	// ActiveSchema advertises the populated subset of a schema.
	ActiveSchema = pattern.ActiveSchema
	// Annotated is a query pattern annotated with relevant peers.
	Annotated = pattern.Annotated
)

// Query and view languages (packages rql, rvl).
type (
	// Query is a parsed RQL query.
	Query = rql.Query
	// CompiledQuery is an analyzed RQL query with its extracted pattern.
	CompiledQuery = rql.Compiled
	// ResultSet is a set of variable-binding rows.
	ResultSet = rql.ResultSet
	// Row is one result tuple.
	Row = rql.Row
	// ViewDef is a parsed RVL view statement.
	ViewDef = rvl.ViewDef
	// CompiledView is an analyzed RVL view.
	CompiledView = rvl.CompiledView
)

// Distributed planning and execution (packages plan, optimizer, exec).
type (
	// Plan is a distributed query plan.
	Plan = plan.Plan
	// PlanNode is one node of a plan tree.
	PlanNode = plan.Node
	// PlanResult bundles annotation, raw and optimized plans.
	PlanResult = plan.PlanResult
	// CostModel estimates plan costs from catalog statistics.
	CostModel = optimizer.CostModel
	// ShippingPolicy selects where joins execute.
	ShippingPolicy = optimizer.ShippingPolicy
	// OptimizerOptions toggles compile-time rewrites.
	OptimizerOptions = optimizer.Options
	// Engine executes distributed plans at a peer.
	Engine = exec.Engine
)

// Infrastructure (packages network, channel, stats, routing).
type (
	// Network is the simulated P2P transport.
	Network = network.Network
	// NetworkCounters aggregates traffic accounting.
	NetworkCounters = network.Counters
	// Channel is a deployed ubQL-style channel.
	Channel = channel.Channel
	// Link models latency and bandwidth between two peers.
	Link = stats.Link
	// PeerStats carries per-peer optimizer statistics.
	PeerStats = stats.PeerStats
	// Catalog is a node's statistics knowledge.
	Catalog = stats.Catalog
	// Registry holds known peer advertisements.
	Registry = routing.Registry
	// Router runs the query-routing algorithm.
	Router = routing.Router
)

// Peer runtime and overlays (packages peer, overlay — overlay types are
// re-exported by son.go).
type (
	// Peer is a running SQPeer node.
	Peer = peer.Peer
	// PeerConfig describes a peer at construction.
	PeerConfig = peer.Config
	// Advertisement is a peer's active-schema + statistics.
	Advertisement = peer.Advertisement
)

// Legacy-base mediation (package swim).
type (
	// VirtualBase exposes relational/XML data as a virtual RDF/S view.
	VirtualBase = swim.VirtualBase
	// RelationalDB is a minimal relational store.
	RelationalDB = swim.RelationalDB
	// RelationalTable is one relational table.
	RelationalTable = swim.Table
	// RelationalMapping maps a table onto a schema property.
	RelationalMapping = swim.RelationalMapping
	// XMLStore holds a parsed XML document.
	XMLStore = swim.XMLStore
	// XMLMapping maps XML elements onto a schema property.
	XMLMapping = swim.XMLMapping
)

// Shipping policies (paper §2.5, Figure 5).
const (
	// DataShipping joins at the root peer.
	DataShipping = optimizer.DataShipping
	// QueryShipping pushes joins to the data.
	QueryShipping = optimizer.QueryShipping
	// HybridShipping decides per join from statistics.
	HybridShipping = optimizer.HybridShipping
)

// Peer kinds (paper §3).
const (
	// ClientPeer only poses queries.
	ClientPeer = peer.ClientPeer
	// SimplePeer shares its base and processes queries.
	SimplePeer = peer.SimplePeer
	// SuperPeer routes queries for its cluster.
	SuperPeer = peer.SuperPeer
)

// NewSchema returns an empty community schema named by its namespace.
func NewSchema(namespace string) *Schema { return rdf.NewSchema(namespace) }

// NewBase returns an empty description base.
func NewBase() *Base { return rdf.NewBase() }

// NewNetwork returns an empty simulated network.
func NewNetwork() *Network { return network.New() }

// NewNamespaces returns an empty prefix table.
func NewNamespaces() *Namespaces { return rdf.NewNamespaces() }

// NewPeer builds and wires a peer into the network.
func NewPeer(cfg PeerConfig, net *Network) (*Peer, error) { return peer.New(cfg, net) }

// NewRegistry returns an empty advertisement registry.
func NewRegistry() *Registry { return routing.NewRegistry() }

// NewIndexedRegistry returns an empty advertisement registry that
// maintains the inverted property index against the community schema, so
// routing over it runs sub-linear in SON size.
func NewIndexedRegistry(schema *Schema) *Registry { return routing.NewIndexedRegistry(schema) }

// NewRouter returns a full-subsumption router over the registry.
func NewRouter(schema *Schema, reg *Registry) *Router { return routing.NewRouter(schema, reg) }

// NewCatalog returns an empty statistics catalog.
func NewCatalog() *Catalog { return stats.NewCatalog() }

// NewCostModel returns a cost model with default knobs over the catalog.
func NewCostModel(cat *Catalog) *CostModel { return optimizer.NewCostModel(cat) }

// ParseRQL parses and analyzes an RQL query against a community schema,
// returning the compiled query with its extracted semantic query pattern.
func ParseRQL(src string, schema *Schema) (*CompiledQuery, error) {
	return rql.ParseAndAnalyze(src, schema)
}

// ParseRVL parses and analyzes RVL view statements against a schema.
func ParseRVL(src string, schema *Schema) ([]*CompiledView, error) {
	return rvl.ParseAndAnalyze(src, schema)
}

// EvalLocal evaluates a compiled query against a single local base (no
// distribution) — useful as ground truth and for client-side tools.
func EvalLocal(q *CompiledQuery, base *Base) (*ResultSet, error) { return rql.Eval(q, base) }

// DeriveActiveSchema inspects a materialized base and derives its
// advertisement.
func DeriveActiveSchema(base *Base, schema *Schema) *ActiveSchema {
	return pattern.DeriveActiveSchema(base, schema)
}

// GeneratePlan compiles an annotated query pattern into a distributed
// plan (the paper's Query-Processing Algorithm).
func GeneratePlan(ann *Annotated) (*Plan, error) { return plan.Generate(ann) }

// OptimizePlan applies the compile-time rewrite pipeline (join/union
// distribution + same-peer merge rules).
func OptimizePlan(p *Plan, opts OptimizerOptions) *Plan { return optimizer.Optimize(p, opts) }

// PaperSchema returns the community schema of the paper's Figure 1
// (classes C1–C6, properties prop1–prop4 with prop4 ⊑ prop1).
func PaperSchema() *Schema { return gen.PaperSchema() }

// PaperQuery returns the Figure-1 query pattern (Q1 ⋈ Q2 on Y).
func PaperQuery() *QueryPattern { return gen.PaperQuery() }

// PaperRQL is the Figure-1 query in RQL concrete syntax.
const PaperRQL = gen.PaperRQL

// PaperRVL is the Figure-1 advertisement view in RVL concrete syntax.
const PaperRVL = gen.PaperRVL

// IndentPlan renders a plan tree one node per line for display.
func IndentPlan(p *Plan) string { return plan.Indent(p.Root) }

// NewIRITerm returns an IRI term.
func NewIRITerm(iri IRI) Term { return rdf.NewIRI(iri) }

// NewLiteralTerm returns a plain literal term.
func NewLiteralTerm(lex string) Term { return rdf.NewLiteral(lex) }

// Statement builds a triple relating two resources through a property.
func Statement(subject, property, object IRI) Triple { return rdf.Statement(subject, property, object) }

// Typing builds the rdf:type triple classifying a resource under a class.
func Typing(resource, class IRI) Triple { return rdf.Typing(resource, class) }

// NewRelationalDB returns an empty simulated relational database.
func NewRelationalDB() *RelationalDB { return swim.NewRelationalDB() }

// NewRelationalTable declares a relational table with the given columns.
func NewRelationalTable(name string, columns ...string) *RelationalTable {
	return swim.NewTable(name, columns...)
}

// ParseXML parses an XML document into a store for SWIM mappings.
func ParseXML(doc string) (*XMLStore, error) { return swim.ParseXML(doc) }

// NewAnnotatedPattern builds an empty annotation for a query pattern.
func NewAnnotatedPattern(q *QueryPattern) *Annotated { return pattern.NewAnnotated(q) }

// ParseSchemaText reads a community schema in the line-oriented text
// format (see internal/rdf: "schema <ns>", "class C [< Super]",
// "property p Dom -> Rng [< super]").
func ParseSchemaText(r io.Reader) (*Schema, error) { return rdf.ParseSchemaText(r) }

// WriteSchemaText renders a schema in the text format.
func WriteSchemaText(w io.Writer, s *Schema) error { return rdf.WriteSchemaText(w, s) }

// ReadBase parses a description base in the N-Triples-like line format.
func ReadBase(r io.Reader) (*Base, error) { return rdf.ReadBase(r) }

// WriteBase dumps a description base in the N-Triples-like line format.
func WriteBase(w io.Writer, b *Base) error { return rdf.WriteBase(w, b) }
