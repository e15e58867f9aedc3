// Package peer implements SQPeer's node runtime (paper §3): client-,
// simple- and super-peers, each owning an RDF/S description base
// (materialized, or virtual through RVL views), an active-schema
// advertisement, a routing registry of known advertisements, a statistics
// catalog, and a distributed execution engine wired into the network.
package peer

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/membership"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
	"sqpeer/internal/rvl"
	"sqpeer/internal/stats"
)

// Kind is a peer's role in the P2P system.
type Kind int

const (
	// ClientPeer only poses queries; it shares no base and does not
	// participate in routing or processing.
	ClientPeer Kind = iota
	// SimplePeer shares its base, advertises, processes queries.
	SimplePeer
	// SuperPeer additionally collects cluster advertisements and routes
	// queries for its simple-peers (hybrid architecture).
	SuperPeer
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ClientPeer:
		return "client-peer"
	case SimplePeer:
		return "simple-peer"
	case SuperPeer:
		return "super-peer"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config describes a peer at construction.
type Config struct {
	// Options are the settings of the peer's execution engine, handed
	// to it as they are: shipping policy for the peer's own queries,
	// dispatch deadline (which also bounds the peer's channel opens and
	// control-plane RPCs), retries, partial answers, frame size and the
	// migration switch.
	exec.Options
	// Parallelism is read by nothing.
	//
	// Deprecated: ignored; every execution is sequential.
	Parallelism int
	// ID names the peer on the network.
	ID pattern.PeerID
	// Kind is the peer's role.
	Kind Kind
	// Schema is the community RDF/S schema (SON) the peer commits to.
	Schema *rdf.Schema
	// Base is the peer's materialized description base (nil for pure
	// clients; ignored when Views are given and VirtualOnly is set).
	Base *rdf.Base
	// Views optionally advertise through RVL views instead of base
	// inspection (the virtual scenario of §2.2).
	Views []*rvl.CompiledView
	// Slots is the peer's concurrent-query processing capacity.
	Slots int
	// Quarantine enables the circuit-breaker health tracker: failed peers
	// are quarantined from routing for a cool-down instead of forgotten.
	Quarantine bool
	// Tracer, when set, records a deterministic per-query trace for every
	// Ask/AskAnnotated posed at this peer: routing, planning, optimization
	// and distributed execution spans, with remote peers' spans grafted in
	// through the channel layer. Only the query root needs a tracer.
	Tracer *obs.Tracer
	// Obs, when set, is the unified metrics registry this peer publishes
	// into: a snapshot-time collector folds the engine's execution
	// counters, the channel manager's packet accounting and (when
	// Quarantine is on) the health breaker's transitions, all labeled
	// peer=<ID>. Several peers may share one registry.
	Obs *obs.Registry
	// Tenant and Priority are the default QoS this peer's own queries
	// run under (Ask/AskAnnotated); AskAnnotatedAs overrides per query.
	// The zero value is an untagged Low-priority query.
	Tenant   string
	Priority admission.Priority
	// Admission, when set, is the peer's admission controller: the
	// facade admits each query against the tenant's token bucket and
	// the priority's occupancy watermark (deadline-aware — rejections
	// whose retry-after exceeds DeadlineMS are flagged hopeless), and
	// the engine admits arriving subplans and sheds past-watermark work.
	// Its counters fold into the Obs collector alongside the engine's.
	Admission *admission.Controller
	// Events, when set, is the unified operations event log every layer
	// of this peer emits into: admission rejections and sheds, executor
	// dispatch/retry/migrate/resume/replan/ledger transitions, channel
	// dedupe drops and plan-change arrivals, health quarantines and
	// condemnations, membership verdicts, and a "query-done" per answered
	// facade query. Several peers may share one log (events carry the
	// peer ID). Nil disables the plane entirely — the ablation path.
	Events *obs.EventLog
	// FlightRec, when set alongside Events, attaches a per-peer flight
	// recorder to the log: a bounded ring of this peer's recent events
	// plus anomaly triggers (slow query, shed burst, condemnation,
	// migration storm) that freeze post-mortem dumps merging the ring
	// with the query's span subtree, critical-path attribution, row
	// ledger and admission occupancy.
	FlightRec bool
	// Membership, when set, runs a failure detector + anti-entropy
	// endpoint at this peer: the routing registry becomes per-peer state
	// fed by membership events — advertisements adopted via anti-entropy
	// are Learned, a confirm-dead verdict condemns the peer (Health
	// breaker pinned open when Quarantine is on, plain registry
	// quarantine otherwise — either way the epoch bumps so in-flight
	// queries migrate), and a higher-incarnation rejoin reinstates it.
	// Gossip updates additionally piggyback on the peer's channel
	// traffic. The owner drives Peer.Membership.Tick once per protocol
	// round.
	Membership *membership.Options
}

// Advertisement is the wire form of a peer's self-description: its
// active-schema plus the statistics the optimizer wants.
type Advertisement struct {
	// Peer is the advertising peer.
	Peer pattern.PeerID `json:"peer"`
	// ActiveSchema is the populated subset of the community schema.
	ActiveSchema *pattern.ActiveSchema `json:"activeSchema"`
	// Stats carries cardinalities and load for optimization.
	Stats *stats.PeerStats `json:"stats"`
}

// Peer is one running node.
type Peer struct {
	// ID names the peer.
	ID pattern.PeerID
	// Kind is the peer's role.
	Kind Kind
	// Schema is the community schema.
	Schema *rdf.Schema
	// Base is the local description base (possibly empty).
	Base *rdf.Base
	// Active is the peer's own advertisement.
	Active *pattern.ActiveSchema
	// Registry holds known advertisements (its own included).
	Registry *routing.Registry
	// Router routes over the registry.
	Router *routing.Router
	// Catalog holds known statistics.
	Catalog *stats.Catalog
	// Channels is the peer's channel manager.
	Channels *channel.Manager
	// Engine executes distributed plans.
	Engine *exec.Engine
	// Health is the circuit-breaker quarantine tracker (nil unless
	// Config.Quarantine was set).
	Health *routing.Health
	// Net is the transport.
	Net *network.Network
	// Tracer records per-query traces (nil when tracing is off).
	Tracer *obs.Tracer
	// Obs is the shared metrics registry (nil when metrics are off).
	Obs *obs.Registry
	// Admission is the peer's admission controller (nil unless
	// Config.Admission was set).
	Admission *admission.Controller
	// Membership is the peer's failure detector / anti-entropy endpoint
	// (nil unless Config.Membership was set).
	Membership *membership.Detector
	// Events is the unified operations event log (nil when the plane is
	// off).
	Events *obs.EventLog
	// Recorder is the peer's flight recorder (nil unless Config.Events
	// and Config.FlightRec were both set).
	Recorder *obs.FlightRecorder
	// Super is the super-peer this simple-peer is attached to (hybrid
	// architecture); empty otherwise.
	Super pattern.PeerID
	// qos is the default QoS for this peer's own queries (from
	// Config.Tenant/Priority).
	qos admission.QoS

	mu        sync.Mutex
	neighbors map[pattern.PeerID]bool
	slots     int
	// statsCache memoizes selfStats against the base's mutation
	// generation; Catalog treats stored *PeerStats as immutable
	// (copy-on-write), so handing the same pointer out repeatedly is safe.
	statsCache *stats.PeerStats
	statsGen   uint64
	// statsBody is statsBodyOf's encoded form, memoized by the same
	// generation (through the memoized pointer) for the Stats trailer
	// the engine sends on every answered subplan.
	statsBody   []byte
	statsBodyOf *stats.PeerStats
}

// New builds and wires a peer into the network.
func New(cfg Config, net *network.Network) (*Peer, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("peer: empty id")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("peer %s: nil schema", cfg.ID)
	}
	base := cfg.Base
	if base == nil {
		base = rdf.NewBase()
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = 4
	}
	p := &Peer{
		ID:        cfg.ID,
		Kind:      cfg.Kind,
		Schema:    cfg.Schema,
		Base:      base,
		Registry:  routing.NewIndexedRegistry(cfg.Schema),
		Catalog:   stats.NewCatalog(),
		Net:       net,
		neighbors: map[pattern.PeerID]bool{},
		slots:     slots,
	}
	// Advertisement: RVL views (virtual scenario) or base inspection
	// (materialized scenario).
	if len(cfg.Views) > 0 {
		p.Active = rvl.CombinedActiveSchema(cfg.Views)
		p.Active.SchemaName = cfg.Schema.Name
	} else {
		p.Active = pattern.DeriveActiveSchema(base, cfg.Schema)
	}
	p.Router = routing.NewRouter(cfg.Schema, p.Registry)
	p.Channels = channel.NewManager(cfg.ID, net)
	p.Engine = exec.NewEngine(cfg.ID, net, p.Channels, localSource{p})
	p.Engine.Options = cfg.Options
	p.Engine.Cost = optimizer.NewCostModel(p.Catalog)
	p.Engine.Router = p.Router
	p.Engine.StatsProvider = p.selfStatsBody
	p.Engine.StatsSink = p.Catalog.PutPeer
	p.Channels.DeadlineMS = cfg.DeadlineMS
	if cfg.Quarantine {
		p.Health = routing.NewHealth(p.Registry)
		p.Engine.Health = p.Health
	}
	p.Tracer = cfg.Tracer
	p.Engine.Tracer = cfg.Tracer
	p.Admission = cfg.Admission
	p.Engine.Admission = cfg.Admission
	p.qos = admission.QoS{Tenant: cfg.Tenant, Priority: cfg.Priority}
	if cfg.Membership != nil {
		p.Membership = membership.New(cfg.ID, net, *cfg.Membership)
		p.Membership.ApplyAdv = p.applyMemberAdv
		p.Membership.OnDead = func(id pattern.PeerID) {
			// Confirm-dead: quarantine the peer out of routing (epoch
			// bump — in-flight queries migrate off it via plan change).
			// With the breaker on, the quarantine is pinned: no half-open
			// probe until the rejoin path revives it.
			if id == p.ID {
				return
			}
			if p.Health != nil {
				p.Health.Condemn(id)
			} else {
				p.Registry.Quarantine(id)
			}
		}
		p.Membership.OnRejoin = func(id pattern.PeerID) {
			if id == p.ID {
				return
			}
			if p.Health != nil {
				p.Health.Revive(id)
			} else {
				p.Registry.Reinstate(id)
			}
		}
		// Liveness updates ride the peer's existing channel traffic both
		// ways (piggybacked gossip), on top of the detector's own probes.
		p.Channels.GossipSource = p.Membership.Piggyback
		p.Channels.OnGossip = p.Membership.HandleGossip
	}
	if cfg.Events != nil {
		p.Events = cfg.Events
		p.Engine.Events = cfg.Events
		p.Channels.Events = cfg.Events
		p.Admission.SetEventLog(cfg.Events, string(cfg.ID))
		p.Health.SetEventLog(cfg.Events, string(cfg.ID))
		if p.Membership != nil {
			p.Membership.Events = cfg.Events
		}
		if cfg.FlightRec {
			p.Recorder = obs.NewFlightRecorder(string(cfg.ID))
			p.Recorder.Context = p.recorderContext
			cfg.Events.AddSink(p.Recorder.Observe)
		}
	}
	if cfg.Obs != nil {
		p.Obs = cfg.Obs
		p.Engine.Obs = cfg.Obs
		peerL := obs.L("peer", string(cfg.ID))
		cfg.Obs.RegisterCollector("peer/"+string(cfg.ID), func(g *obs.Gather) {
			p.Engine.Metrics().CollectObs(g, peerL)
			p.Channels.Stats().CollectObs(g, peerL)
			if p.Health != nil {
				p.Health.Stats().CollectObs(g, peerL)
			}
			if p.Membership != nil {
				p.Membership.Stats().CollectObs(g, peerL)
			}
			p.Admission.CollectObs(g, peerL)
		})
	}

	// A sharing peer knows itself.
	if cfg.Kind != ClientPeer && p.Active.Size() > 0 {
		p.Registry.Register(p.ID, p.Active)
	}
	p.Catalog.PutPeer(p.selfStats())
	p.refreshMemberAdv()

	net.Handle(p.ID, "adv.push", p.handleAdvPush)
	net.Handle(p.ID, "adv.pull", p.handleAdvPull)
	net.Handle(p.ID, "adv.leave", p.handleAdvLeave)
	net.Handle(p.ID, "query.route", p.handleQueryRoute)
	return p, nil
}

// localSource adapts the peer's base to the executor.
type localSource struct{ p *Peer }

// EvalScan evaluates and joins the patterns against the local base.
func (ls localSource) EvalScan(patterns []pattern.PathPattern) *rql.ResultSet {
	var acc *rql.ResultSet
	for _, pp := range patterns {
		rs := rql.EvalPathPattern(ls.p.Base, ls.p.Schema, pp)
		if acc == nil {
			acc = rs
		} else {
			acc = acc.Join(rs)
		}
	}
	if acc == nil {
		acc = rql.NewResultSet()
	}
	return acc
}

// EvalScanBatch is EvalScan on the columnar plane (exec.BatchSource):
// each pattern scans straight into a batch of the base's ids and
// multi-pattern subplans join vectorized, so local evaluation never
// materializes row maps and the joins between scans never remap an id.
// A non-nil store receives the answer rebased onto it.
func (ls localSource) EvalScanBatch(patterns []pattern.PathPattern, store *rql.TermStore) *rql.Batch {
	var acc *rql.Batch
	for _, pp := range patterns {
		b := rql.EvalPathPatternBatch(ls.p.Base, ls.p.Schema, pp)
		if acc == nil {
			acc = b
		} else {
			acc = acc.Join(b)
		}
	}
	if acc == nil {
		acc = rql.NewBatch()
	}
	if store != nil {
		acc.Rebase(store)
	}
	return acc
}

// selfStats collects the peer's own statistics, memoized against the
// base's mutation generation. The engine piggybacks these on every
// answered subplan (paper §2.4), so without the cache a full base scan
// ran per answered subplan — on large bases that recomputation, not row
// movement, dominated distributed execution time.
func (p *Peer) selfStats() *stats.PeerStats {
	ps, _ := p.selfStatsAt()
	return ps
}

// selfStatsAt is selfStats plus the base generation the statistics
// describe.
func (p *Peer) selfStatsAt() (*stats.PeerStats, uint64) {
	gen := p.Base.Gen()
	p.mu.Lock()
	if ps := p.statsCache; ps != nil && p.statsGen == gen {
		p.mu.Unlock()
		return ps, gen
	}
	p.mu.Unlock()
	bs := rdf.CollectStats(p.Base, p.Schema)
	ps := stats.FromBaseStats(p.ID, bs, p.slots)
	p.mu.Lock()
	p.statsCache, p.statsGen = ps, gen
	p.mu.Unlock()
	return ps, gen
}

// selfStatsBody is selfStats encoded (stats.MarshalPeerStats), memoized
// for as long as selfStats hands back the same statistics: every
// subplan answered at one base generation appends the same bytes. It
// also returns the statistics' version, the base's stamp and the
// generation they describe, which the engine compares with the version
// a root states it holds. The body is nil if the statistics cannot be
// encoded.
func (p *Peer) selfStatsBody() (body []byte, stamp, gen uint64) {
	ps, gen := p.selfStatsAt()
	stamp = p.Base.Stamp()
	p.mu.Lock()
	body, of := p.statsBody, p.statsBodyOf
	p.mu.Unlock()
	if of == ps {
		return body, stamp, gen
	}
	body, err := stats.MarshalPeerStats(ps)
	if err != nil {
		return nil, stamp, gen
	}
	p.mu.Lock()
	p.statsBody, p.statsBodyOf = body, ps
	p.mu.Unlock()
	return body, stamp, gen
}

// Advertisement returns the peer's current advertisement (active-schema
// refreshed from views or base, statistics included).
func (p *Peer) Advertisement() *Advertisement {
	return &Advertisement{Peer: p.ID, ActiveSchema: p.Active, Stats: p.selfStats()}
}

// RefreshAdvertisement re-derives the active-schema after base mutations
// (materialized scenario only).
func (p *Peer) RefreshAdvertisement() {
	p.Active = pattern.DeriveActiveSchema(p.Base, p.Schema)
	if p.Kind != ClientPeer && p.Active.Size() > 0 {
		p.Registry.Register(p.ID, p.Active)
	}
	p.Catalog.PutPeer(p.selfStats())
	p.refreshMemberAdv()
}

// refreshMemberAdv installs the current advertisement as the membership
// layer's local blob, bumping the advertisement epoch so anti-entropy
// propagates the change. Only sharing peers with a populated
// active-schema advertise — mirroring the self-registration rule — so
// client peers never enter remote routing registries through membership.
func (p *Peer) refreshMemberAdv() {
	if p.Membership == nil || p.Kind == ClientPeer || p.Active.Size() == 0 {
		return
	}
	blob, err := json.Marshal(p.Advertisement())
	if err != nil {
		return
	}
	p.Membership.SetLocalAdvertisement(blob)
}

// applyMemberAdv is the membership ApplyAdv callback: an advertisement
// blob adopted as fresher by the anti-entropy merge folds into this
// peer's own routing registry and statistics catalog — the per-peer
// routing view the detector feeds, replacing the shared oracle.
func (p *Peer) applyMemberAdv(id pattern.PeerID, blob []byte) {
	var adv Advertisement
	if err := json.Unmarshal(blob, &adv); err != nil || adv.Peer != id {
		return
	}
	if adv.ActiveSchema == nil || adv.ActiveSchema.Size() == 0 {
		// Non-sharing peers carry no routable advertisement; keep any
		// statistics, skip the registry.
		if adv.Stats != nil {
			p.Catalog.PutPeer(adv.Stats)
		}
		return
	}
	p.Learn(&adv)
}

// Learn folds a remote advertisement into the peer's routing and
// statistics knowledge.
func (p *Peer) Learn(adv *Advertisement) {
	if adv == nil || adv.Peer == "" {
		return
	}
	if adv.ActiveSchema != nil {
		p.Registry.Register(adv.Peer, adv.ActiveSchema)
	}
	if adv.Stats != nil {
		p.Catalog.PutPeer(adv.Stats)
	}
}

// Forget drops a peer from routing knowledge (departure or failure).
func (p *Peer) Forget(id pattern.PeerID) {
	p.Registry.Unregister(id)
	p.mu.Lock()
	delete(p.neighbors, id)
	p.mu.Unlock()
}

// AddNeighbor records a physical neighbor (ad-hoc architecture).
func (p *Peer) AddNeighbor(id pattern.PeerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.neighbors[id] = true
}

// Neighbors returns the physical neighbors, sorted.
func (p *Peer) Neighbors() []pattern.PeerID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]pattern.PeerID, 0, len(p.neighbors))
	for id := range p.neighbors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PushAdvertisement sends this peer's advertisement to another peer
// (the push of §3.1: "when a peer connects to a super-peer, it forwards
// its corresponding active-schema").
func (p *Peer) PushAdvertisement(to pattern.PeerID) error {
	body, err := json.Marshal(p.Advertisement())
	if err != nil {
		return fmt.Errorf("peer %s: marshal advertisement: %w", p.ID, err)
	}
	if _, err := p.Net.CallWithin(p.ID, to, "adv.push", body, p.Engine.DeadlineMS); err != nil {
		return fmt.Errorf("peer %s: push advertisement to %s: %w", p.ID, to, err)
	}
	return nil
}

// PullAdvertisement requests another peer's advertisement and learns it
// (the pull of §3.2: "the peer explicitly requests the active-schemas of
// its neighbor peers").
func (p *Peer) PullAdvertisement(from pattern.PeerID) error {
	reply, err := p.Net.CallWithin(p.ID, from, "adv.pull", nil, p.Engine.DeadlineMS)
	if err != nil {
		return fmt.Errorf("peer %s: pull advertisement from %s: %w", p.ID, from, err)
	}
	var adv Advertisement
	if err := json.Unmarshal(reply, &adv); err != nil {
		return fmt.Errorf("peer %s: bad advertisement from %s: %w", p.ID, from, err)
	}
	p.Learn(&adv)
	return nil
}

// AnnounceDeparture tells the given peers this peer is leaving the SON
// (the graceful half of "join and leave the network at will"); recipients
// drop it from their routing knowledge. Dead recipients are skipped.
func (p *Peer) AnnounceDeparture(to ...pattern.PeerID) {
	for _, id := range to {
		_ = p.Net.SendWithin(p.ID, id, "adv.leave", []byte(p.ID), p.Engine.DeadlineMS)
	}
}

// handleAdvLeave processes a departure announcement.
func (p *Peer) handleAdvLeave(msg network.Message) ([]byte, error) {
	p.Forget(msg.From)
	return []byte("ok"), nil
}

func (p *Peer) handleAdvPush(msg network.Message) ([]byte, error) {
	var adv Advertisement
	if err := json.Unmarshal(msg.Payload, &adv); err != nil {
		return nil, fmt.Errorf("peer %s: bad advertisement push: %w", p.ID, err)
	}
	p.Learn(&adv)
	return []byte("ok"), nil
}

func (p *Peer) handleAdvPull(network.Message) ([]byte, error) {
	body, err := json.Marshal(p.Advertisement())
	if err != nil {
		return nil, fmt.Errorf("peer %s: marshal advertisement: %w", p.ID, err)
	}
	return body, nil
}

// handleQueryRoute serves routing requests: a super-peer annotates the
// query pattern with its cluster knowledge and replies (the first phase
// of hybrid evaluation, §3.1).
func (p *Peer) handleQueryRoute(msg network.Message) ([]byte, error) {
	q, err := pattern.UnmarshalQuery(msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("peer %s: bad routing request: %w", p.ID, err)
	}
	return pattern.MarshalAnnotated(p.Router.Route(q))
}

// RequestRouting asks a (super-)peer to annotate the query pattern.
func (p *Peer) RequestRouting(from pattern.PeerID, q *pattern.QueryPattern) (*pattern.Annotated, error) {
	body, err := pattern.MarshalQuery(q)
	if err != nil {
		return nil, fmt.Errorf("peer %s: marshal query pattern: %w", p.ID, err)
	}
	reply, err := p.Net.CallWithin(p.ID, from, "query.route", body, p.Engine.DeadlineMS)
	if err != nil {
		return nil, fmt.Errorf("peer %s: routing request to %s: %w", p.ID, from, err)
	}
	return pattern.UnmarshalAnnotated(reply)
}

// Compile parses and analyzes RQL text against the peer's schema.
func (p *Peer) Compile(rqlText string) (*rql.Compiled, error) {
	return rql.ParseAndAnalyze(rqlText, p.Schema)
}

// finishQuery books one answered facade query into the operations
// plane: a peer_queries_total tick and a peer_query_latency_ms sample
// (the SLO evaluator's p99 and completeness inputs), plus a
// "query-done" event whose durMs attribute feeds the flight recorder's
// slow-query baseline. Latency is the logical-clock delta across the
// facade, the same measure the harnesses report. No-op pieces when the
// registry or the event log are off.
func (p *Peer) finishQuery(qsp *obs.Span, qos admission.QoS, startMS float64, res *exec.Result) {
	durMS := p.Net.NowMS() - startMS
	if p.Obs != nil {
		peerL := obs.L("peer", string(p.ID))
		p.Obs.Counter("peer_queries_total", peerL).Inc()
		p.Obs.Histogram("peer_query_latency_ms", peerL).Observe(durMS)
	}
	attrs := []obs.Attr{
		obs.A("durMs", strconv.FormatFloat(durMS, 'g', -1, 64)),
		obs.A("rows", strconv.Itoa(res.Rows.Len())),
		obs.A("complete", strconv.FormatBool(res.Completeness.Complete)),
	}
	if qos.Tenant != "" {
		attrs = append(attrs, obs.A("tenant", qos.Tenant))
	}
	if qsp != nil {
		qsp.EmitEvent(p.Events, "peer", "query-done", attrs...)
		return
	}
	p.Events.Emit("peer", "query-done", string(p.ID), "", attrs...)
}

// recorderContext assembles the post-mortem context a flight-recorder
// dump freezes for one trace: the query's span subtree, its
// critical-path attribution, the engine's row ledger and the admission
// occupancy at freeze time.
func (p *Peer) recorderContext(trace string) map[string]any {
	ctx := map[string]any{}
	if p.Tracer != nil && trace != "" {
		for _, tr := range p.Tracer.Traces() {
			if tr.ID != trace {
				continue
			}
			ctx["spans"] = tr.Root().Record()
			if a := obs.Analyze(tr, 0); a != nil {
				ctx["critpath"] = a
			}
			break
		}
	}
	if led := p.Engine.Ledger(); len(led) > 0 {
		ctx["ledger"] = led
	}
	if p.Admission != nil {
		ctx["admissionOccupancy"] = p.Admission.Occupancy()
	}
	return ctx
}

// PlanQuery routes a query pattern (locally, or through the super-peer
// when attached to one) and compiles the annotation into an optimized
// distributed plan.
func (p *Peer) PlanQuery(q *pattern.QueryPattern) (*plan.PlanResult, error) {
	return p.planWith(q, nil, nil)
}

// startQuerySpan opens the per-query trace root when the peer has a
// tracer; nil otherwise (every span method is nil-safe).
func (p *Peer) startQuerySpan(op string) *obs.Span {
	if p.Tracer == nil {
		return nil
	}
	tr := p.Tracer.StartTrace(op+"@"+string(p.ID), string(p.ID))
	return tr.Root()
}

// RouteFunc stands in for a peer's own routing step: it annotates the
// query pattern with the peers that answer each path pattern.
type RouteFunc func(q *pattern.QueryPattern) (*pattern.Annotated, error)

// planWith routes the pattern (through route when given, else locally or
// through the super-peer), then generates and optimizes the plan.
func (p *Peer) planWith(q *pattern.QueryPattern, route RouteFunc, span *obs.Span) (*plan.PlanResult, error) {
	var ann *pattern.Annotated
	var err error
	rsp := span.Child(obs.KindRoute, "route")
	switch {
	case route != nil:
		ann, err = route(q)
	case p.Super != "":
		if rsp != nil {
			rsp.Annotate("via", string(p.Super))
		}
		ann, err = p.RequestRouting(p.Super, q)
	default:
		ann = p.Router.Route(q)
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	psp := span.Child(obs.KindPlan, "plan")
	pl, err := plan.Generate(ann)
	psp.End()
	if err != nil {
		return nil, err
	}
	osp := span.Child(obs.KindOptimize, "optimize")
	optimized := optimizer.Optimize(pl, optimizer.Options{})
	osp.End()
	return &plan.PlanResult{Annotated: ann, Raw: pl, Optimized: optimized}, nil
}

// Ask answers an RQL query end-to-end: compile, route (via the super-peer
// in hybrid mode), generate and optimize the plan, execute it with this
// peer as root, and finish the answer on the executor's batch — WHERE
// filters, then projection, then LIMIT. Runs under the peer's configured
// default QoS.
func (p *Peer) Ask(rqlText string) (*rql.ResultSet, error) {
	res, err := p.AskAnnotatedAs(rqlText, p.qos)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// AskAnnotated is Ask returning the completeness annotation alongside the
// rows: with AllowPartial configured, a query some patterns of which
// became unanswerable mid-flight yields its answerable rows plus the list
// of unanswered patterns, instead of an error.
func (p *Peer) AskAnnotated(rqlText string) (*exec.Result, error) {
	return p.AskAnnotatedAs(rqlText, p.qos)
}

// AskAnnotatedAs is AskAnnotated under an explicit QoS. With an
// admission controller configured, the query is admitted at this facade
// first — charged against the tenant's token bucket and checked under
// its priority's occupancy watermark, with the engine's DeadlineMS as the
// deadline-awareness budget. A rejected query returns a transient
// *admission.OverloadError (network.Transient reports true) carrying a
// retry-after hint on the logical clock; no compile or routing work is
// spent on it. The QoS then rides every channel open and subplan
// request the execution ships.
func (p *Peer) AskAnnotatedAs(rqlText string, qos admission.QoS) (*exec.Result, error) {
	return p.ask(rqlText, qos, nil)
}

// AskRouted is AskAnnotated with route in place of the peer's own
// routing step. The ad-hoc SON passes its interleaved routing (§3.2),
// which completes the annotation across the overlay; planning,
// execution and the finish then run here as for any other query.
func (p *Peer) AskRouted(rqlText string, route RouteFunc) (*exec.Result, error) {
	return p.ask(rqlText, p.qos, route)
}

func (p *Peer) ask(rqlText string, qos admission.QoS, route RouteFunc) (*exec.Result, error) {
	if err := p.Admission.AdmitQuery(qos, p.Engine.DeadlineMS); err != nil {
		return nil, err
	}
	defer p.Admission.Done()
	startMS := p.Net.NowMS()
	qsp := p.startQuerySpan("ask")
	defer qsp.End()
	if qsp != nil && qos.Tenant != "" {
		qsp.Annotate("tenant", qos.Tenant)
		qsp.Annotate("priority", qos.Priority.String())
	}
	c, err := p.Compile(rqlText)
	if err != nil {
		return nil, err
	}
	pr, err := p.planWith(c.Pattern, route, qsp)
	if err != nil {
		return nil, err
	}
	rows, comp, err := p.Engine.ExecuteBatch(pr.Optimized, qsp, qos)
	if err != nil {
		return nil, err
	}
	answer, err := c.Answer(rows)
	if err != nil {
		return nil, err
	}
	res := &exec.Result{Rows: answer, Completeness: comp}
	p.finishQuery(qsp, qos, startMS, res)
	return res, nil
}
