package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"sqpeer/internal/admission"
	"sqpeer/internal/exec"
	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/routing"
)

func init() {
	register("overload", "CLAIM-OVERLOAD: multi-tenant admission, priority shedding and hot-advertisement replication under 2× sustained overload (§13)", claimOverload)
}

// Overload workload shape: six tenants in three priority classes, drawn
// per round from a seeded Zipf so demand is skewed the way real tenant
// populations are. Rank order puts the chattiest tenant in the cheapest
// class — the configuration admission control exists for.
var overloadTenants = []struct {
	name string
	prio admission.Priority
}{
	{"bronze-0", admission.Low},
	{"gold", admission.High},
	{"silver", admission.Normal},
	{"bronze-1", admission.Low},
	{"bronze-2", admission.Low},
	{"bronze-3", admission.Low},
}

// overloadTenantRow is one tenant's ledger over the loaded pass.
type overloadTenantRow struct {
	Tenant       string
	Priority     string
	Offered      int
	Admitted     int
	RejectedRate int
	RejectedLoad int
	Full         int
	Partial      int
	Failed       int
}

// overloadRun is one seeded pass over the overload fixture.
type overloadRun struct {
	rows      map[string]*overloadTenantRow
	goldLats  []float64
	digest    uint64
	fairness  float64
	occupancy int // peak root occupancy observed

	shed, overloadRejected     int
	migrations, honoredRetries int
	shedHoles, timeoutHoles    int
	bareTimeouts               int
	replications               int
	factor                     float64 // measured offered demand / capacity
	answers                    uint64  // digest over row sets only (for the ablation)
}

// overloadCfg bundles one pass's knobs.
type overloadCfg struct {
	seed      int64
	rounds    int
	stepMS    float64 // logical think time between queries: the load axis
	faultRate float64
	disabled  bool // ablation: admission pass-through everywhere
	goldOnly  bool // baseline: only the High tenant, no competing load
	replicate bool // mid-run hot-advertisement rebalance
	bursts    bool // concurrent gold arrivals at the root (goldBurst)
	rateFair  bool // rate-bound pass: buckets bind, occupancy unlimited
}

// claimOverload puts the multi-tenant serving layer under 2× sustained
// overload with a 10% fault mix and checks the §13 contract: the system
// neither deadlocks nor leaks, high-priority latency stays within 1.5×
// of its unloaded baseline, shed work surfaces as completeness holes or
// completed migrations (never bare timeouts), same-seed reruns are
// byte-identical, and disabling admission (the ablation) changes which
// queries wait, not what any query answers.
func claimOverload() *Report {
	r := &Report{ID: "overload", Title: "CLAIM-OVERLOAD: multi-tenant admission, priority shedding and hot-advertisement replication under 2× sustained overload (§13)", Pass: true}
	const (
		seed      = overloadSeed
		rounds    = 80
		stepMS    = 40.0 // offered: one query per 40 logical ms
		faultRate = 0.10
	)

	goroutinesBefore := runtime.NumGoroutine()

	// Loaded pass and its determinism rerun; the unloaded gold baseline
	// and the fault-free ablation pair run at calmStep — wide enough that
	// even Low-watermark occupancy never binds, so those passes measure
	// the system, not residual contention. The fairness pass flips the
	// binding constraint to the per-tenant buckets.
	const calmStep = 96 * stepMS
	loaded := runOverloadPass(overloadCfg{seed: seed, rounds: rounds, stepMS: stepMS, faultRate: faultRate, replicate: true, bursts: true})
	rerun := runOverloadPass(overloadCfg{seed: seed, rounds: rounds, stepMS: stepMS, faultRate: faultRate, replicate: true, bursts: true})
	baseline := runOverloadPass(overloadCfg{seed: seed, rounds: rounds, stepMS: calmStep, faultRate: faultRate, goldOnly: true})
	enabledCalm := runOverloadPass(overloadCfg{seed: seed, rounds: rounds / 2, stepMS: calmStep})
	ablation := runOverloadPass(overloadCfg{seed: seed, rounds: rounds / 2, stepMS: calmStep, disabled: true})
	fair := runOverloadPass(overloadCfg{seed: seed, rounds: rounds, stepMS: 8 * stepMS, rateFair: true})

	goldP99, goldBaselineP99 := p99(loaded.goldLats), p99(baseline.goldLats)
	goldP99Ratio := 0.0
	if goldBaselineP99 > 0 {
		goldP99Ratio = goldP99 / goldBaselineP99
	}
	shedSurfaced := loaded.shedHoles + loaded.migrations
	bareTimeouts := loaded.bareTimeouts + loaded.timeoutHoles
	surfacedRatio := 1.0
	if surfacedDenom := shedSurfaced + bareTimeouts; surfacedDenom > 0 {
		surfacedRatio = float64(shedSurfaced) / float64(surfacedDenom)
	}

	for _, t := range overloadTenants {
		row := loaded.rows[t.name]
		r.linef("  %-9s %-6s offered %4d  admitted %4d  rej-rate %3d  rej-load %3d  full %4d  partial %3d  failed %2d",
			row.Tenant, row.Priority, row.Offered, row.Admitted, row.RejectedRate, row.RejectedLoad,
			row.Full, row.Partial, row.Failed)
	}
	r.linef("  gold p99 %.0fms (baseline %.0fms, ratio %.2f×)  shed %d  rejected %d  migrations %d  retry-hints %d",
		goldP99, goldBaselineP99, goldP99Ratio,
		loaded.shed, loaded.overloadRejected, loaded.migrations, loaded.honoredRetries)
	r.linef("  shed surfaced %d / bare timeouts %d (ratio %.3f)  replications %d  fairness %.3f  factor %.1f×",
		shedSurfaced, bareTimeouts, surfacedRatio,
		loaded.replications, fair.fairness, loaded.factor)

	runtime.GC()
	goroutineLeak := runtime.NumGoroutine() - goroutinesBefore

	r.check("sustained overload applied (≥2× root capacity, facade rejections and sheds observed)",
		loaded.factor >= 2 && loaded.overloadRejected+overloadRejections(loaded) > 0 && loaded.shed > 0)
	r.check("high-priority p99 within 1.5× of the unloaded baseline", goldP99Ratio > 0 && goldP99Ratio <= 1.5)
	r.check("≥95% of shed/overloaded subplans surface as holes or completed migrations (never bare timeouts)",
		surfacedRatio >= 0.95)
	r.check("retry-after hints honored under overload", loaded.honoredRetries > 0)
	r.check("hot-advertisement replication rebalanced at least one advertisement", loaded.replications > 0)
	r.check("rate-bound fairness: Jain over bronze admitted/entitlement ≥ 0.9", fair.fairness >= 0.9)
	r.check("same-seed rerun byte-identical", loaded.digest == rerun.digest)
	r.check("ablation (admission disabled) leaves every answer unchanged", enabledCalm.answers == ablation.answers)
	r.check("no goroutine leak across the soak", goroutineLeak <= 2)
	return r
}

// Root and server admission geometry. One query per stepMS, each
// holding a root lease for rootHoldMS, demands rootHoldMS/stepMS
// concurrent slots — 2× the root's pool. Servers are sized so bronze
// work (watermarked to one slot) gets squeezed while gold's full
// allocation rides out the same load.
const (
	rootMaxConcurrent = 6
	rootHoldMS        = 7200.0
	serverConcurrent  = 3
	serverHoldMS      = 150.0
	burstEvery        = 12
	// fairRatePerSec is the per-tenant bucket refill in the rate-bound
	// fairness pass: low enough that the Zipf-hot tenant is capped while
	// cold tenants run uncapped.
	fairRatePerSec = 0.4
)

// goldBurst models concurrent high-priority arrivals at the root peer:
// every `every`-th subplan delivery admits one gold work lease into the
// root controller, mid-flight of whatever query is executing. This is
// the scenario priority shedding exists for — a low query admitted
// under the watermark, then overtaken before its subplans dispatch —
// made deterministic by keying the bursts to the traffic itself. Chains
// to the fault injector so one Intercept sees every delivery.
type goldBurst struct {
	ctl   *admission.Controller
	every int
	n     int
	inner network.Injector
}

func (b *goldBurst) Intercept(m network.Message) network.Fault {
	if m.Kind == "exec.subplan" {
		b.n++
		if b.n%b.every == 0 {
			// Rejection just means the root is already saturated.
			_ = b.ctl.AdmitWork(admission.QoS{Tenant: "gold", Priority: admission.High})
		}
	}
	if b.inner != nil {
		return b.inner.Intercept(m)
	}
	return network.Fault{}
}

// overloadRejections counts facade-level rejections across tenants.
func overloadRejections(run overloadRun) int {
	n := 0
	for _, row := range run.rows {
		n += row.RejectedRate + row.RejectedLoad
	}
	return n
}

// runOverloadPass executes one seeded pass: fresh system, fresh
// injector, cfg.rounds queries drawn from the Zipfian tenant mix, one
// logical stepMS of think time apart. Everything — tenant draws, fault
// schedule, admission decisions, shedding — is a function of cfg.
func runOverloadPass(cfg overloadCfg) overloadRun {
	schema := gen.PaperSchema()
	bases := gen.PaperBases(2)
	net := network.New()
	ids := []pattern.PeerID{"P1", "P2", "P3", "P4"}
	servers := map[pattern.PeerID]*peer.Peer{}
	for _, id := range ids {
		p, err := peer.New(peer.Config{
			ID: id, Kind: peer.SimplePeer, Schema: schema, Base: bases[id],
			Options: exec.Options{Parallelism: 1},
			Admission: admission.NewController(admission.Config{
				MaxConcurrent: serverConcurrent, HoldMS: serverHoldMS,
				Clock: net.NowMS, Disabled: cfg.disabled,
			}),
		}, net)
		if err != nil {
			panic(err)
		}
		servers[id] = p
	}
	rootCfg := admission.Config{
		RatePerSec: 6, Burst: 2,
		MaxConcurrent: rootMaxConcurrent, HoldMS: rootHoldMS,
		Clock: net.NowMS, Disabled: cfg.disabled,
	}
	if cfg.rateFair {
		// Buckets are the only constraint: unlimited occupancy, tight
		// per-tenant refill, so the invariant under test is each
		// tenant's admitted share against its entitlement.
		rootCfg = admission.Config{RatePerSec: fairRatePerSec, Burst: 1, Clock: net.NowMS}
	}
	rootCtl := admission.NewController(rootCfg)
	p0, err := peer.New(peer.Config{
		ID: "P0", Kind: peer.ClientPeer, Schema: schema,
		Options:    exec.Options{Parallelism: 1, DeadlineMS: 300, MaxRetries: 2, AllowPartial: true},
		Quarantine: true,
		Admission:  rootCtl,
	}, net)
	if err != nil {
		panic(err)
	}
	for _, id := range ids {
		p0.Learn(servers[id].Advertisement())
	}
	net.ResetCounters()

	var inner network.Injector
	if cfg.faultRate > 0 {
		inner = faults.NewInjector(cfg.seed, faults.Rates{
			Drop: 1, Duplicate: 1, DelaySpike: 1, SpikeMS: 150,
		}.Scaled(cfg.faultRate))
	}
	var burst *goldBurst
	if cfg.bursts {
		burst = &goldBurst{ctl: rootCtl, every: burstEvery, inner: inner}
		net.SetInjector(burst)
	} else if inner != nil {
		net.SetInjector(inner)
	}

	rng := gen.NewRNG(cfg.seed)
	zipf := rand.NewZipf(rng, 1.4, 2, uint64(len(overloadTenants)-1))

	run := overloadRun{rows: map[string]*overloadTenantRow{}}
	for _, t := range overloadTenants {
		run.rows[t.name] = &overloadTenantRow{Tenant: t.name, Priority: t.prio.String()}
	}
	h := fnv.New64a()
	ha := fnv.New64a() // answers only, for the ablation comparison

	for round := 0; round < cfg.rounds; round++ {
		net.AdvanceMS(cfg.stepMS)
		// The servers never crash here — faults are message-level — so
		// their advertisements stay valid: tick the quarantine cool-down
		// and periodically re-learn, the harness's stand-in for the
		// advertisement refresh a live overlay gossips anyway.
		p0.Health.Tick()
		if round%10 == 0 {
			for _, id := range ids {
				p0.Learn(servers[id].Advertisement())
			}
		}
		t := overloadTenants[zipf.Uint64()]
		if cfg.goldOnly {
			t = overloadTenants[1] // gold
		}
		row := run.rows[t.name]
		row.Offered++
		qos := admission.QoS{Tenant: t.name, Priority: t.prio}

		latBefore := net.NowMS()
		backBefore := p0.Engine.Metrics().BackoffMS
		res, err := p0.AskAnnotatedAs(gen.PaperRQL, qos)
		m := p0.Engine.Metrics()
		lat := net.NowMS() - latBefore + (m.BackoffMS - backBefore)

		switch {
		case err != nil:
			var oe *admission.OverloadError
			if errors.As(err, &oe) {
				if oe.Reason == "rate" {
					row.RejectedRate++
				} else {
					row.RejectedLoad++
				}
				fmt.Fprintf(h, "%d:%s:rejected:%s\n", round, t.name, oe.Reason)
			} else {
				row.Failed++
				run.bareTimeouts++
				fmt.Fprintf(h, "%d:%s:error\n", round, t.name)
			}
		default:
			row.Admitted++
			if t.name == "gold" {
				run.goldLats = append(run.goldLats, lat)
			}
			if res.Completeness.Complete {
				row.Full++
			} else {
				row.Partial++
				for _, u := range res.Completeness.Unanswered {
					switch {
					case strings.Contains(u.Reason, "shed") || strings.Contains(u.Reason, "overload"):
						run.shedHoles++
					case strings.Contains(u.Reason, "deadline") || strings.Contains(u.Reason, "timeout"):
						run.timeoutHoles++
					default:
						// Fault-driven holes (dead peers, dropped links):
						// not overload work, not counted either way.
					}
				}
			}
			var unanswered []string
			for _, u := range res.Completeness.Unanswered {
				unanswered = append(unanswered, u.PatternID)
			}
			fmt.Fprintf(h, "%d:%s:%v:%v\n", round, t.name, unanswered, res.Rows.Sorted())
			fmt.Fprintf(ha, "%d:%v\n", round, res.Rows.Sorted())
		}
		if occ := rootCtl.Occupancy(); occ > run.occupancy {
			run.occupancy = occ
		}

		// Mid-run: rebalance the hottest advertisement onto the
		// least-loaded server. Routing demand concentrated by the union
		// fan-out spreads out; answers are sets, so replication never
		// changes them, only who serves.
		if cfg.replicate && round == cfg.rounds/2 {
			run.replications += rebalanceHot(p0, servers)
		}
	}

	m := p0.Engine.Metrics()
	run.shed = m.Shed
	run.migrations = m.Migrations
	run.honoredRetries = m.RetryAfterHonored
	for _, s := range servers {
		run.overloadRejected += s.Engine.Metrics().OverloadRejected
	}
	if cfg.rateFair {
		run.fairness = entitlementJain(run.rows, net.NowMS())
	} else {
		run.fairness = bronzeFairness(run.rows)
	}
	// Measured overload factor: every offered query (admitted or not)
	// plus every gold burst demanded one rootHoldMS lease; capacity is
	// the root's slot pool over the elapsed logical time.
	if elapsed := net.NowMS(); elapsed > 0 {
		demanded := float64(cfg.rounds)
		if burst != nil {
			demanded += float64(burst.n / burst.every)
		}
		run.factor = demanded * rootHoldMS / (elapsed * rootMaxConcurrent)
	}
	run.digest = h.Sum64()
	run.answers = ha.Sum64()
	// Fold the controller's own observable state into the digest via the
	// metrics path every peer exports (deterministically sorted).
	reg := obs.NewRegistry()
	reg.RegisterCollector("adm", func(g *obs.Gather) { rootCtl.CollectObs(g) })
	hd := fnv.New64a()
	for _, mt := range reg.Snapshot() {
		fmt.Fprintf(hd, "%s{%s}=%g\n", mt.Name, mt.Labels, mt.Value)
	}
	run.digest ^= hd.Sum64()
	return run
}

// rebalanceHot replicates the hottest advertisement's base triples onto
// the least lease-loaded eligible server and teaches the root the
// refreshed advertisement. Returns the number of applied replications.
func rebalanceHot(p0 *peer.Peer, servers map[pattern.PeerID]*peer.Peer) int {
	rep := &routing.Replicator{
		Registry: p0.Registry,
		TopK:     1, Copies: 1,
		Load: func(id pattern.PeerID) float64 {
			if s, ok := servers[id]; ok {
				return float64(s.Admission.Occupancy())
			}
			return 0
		},
		Eligible: func(id pattern.PeerID) bool { _, ok := servers[id]; return ok },
		Apply: func(hot, target pattern.PeerID) bool {
			src, ok1 := servers[hot]
			dst, ok2 := servers[target]
			if !ok1 || !ok2 {
				return false
			}
			for _, tr := range src.Base.Triples() {
				dst.Base.Add(tr)
			}
			dst.RefreshAdvertisement()
			p0.Learn(dst.Advertisement())
			return true
		},
	}
	return len(rep.Rebalance())
}

// bronzeFairness is Jain's index over the Low-class tenants' admission
// rates (admitted/offered) in the loaded pass — reported in the per-pass
// diagnostics but not a check: occupancy-bound admission is priority-
// ordered, not tenant-fair (see DESIGN.md §13).
func bronzeFairness(rows map[string]*overloadTenantRow) float64 {
	var xs []float64
	for _, name := range sortedTenantNames(rows) {
		if row := rows[name]; row.Priority == "low" && row.Offered > 0 {
			xs = append(xs, float64(row.Admitted)/float64(row.Offered))
		}
	}
	return jainIndex(xs)
}

// entitlementJain scores the fairness invariant the per-tenant buckets
// actually guarantee: when the refill rate is the binding constraint,
// every tenant gets min(its demand, its entitlement) — the bucket's
// refill over the elapsed logical time plus its burst. Jain's index over
// admitted/entitlement is ≈1 exactly when no tenant is denied tokens
// another same-class tenant consumed beyond its share.
func entitlementJain(rows map[string]*overloadTenantRow, elapsedMS float64) float64 {
	var xs []float64
	for _, name := range sortedTenantNames(rows) {
		row := rows[name]
		if row.Priority != "low" || row.Offered == 0 {
			continue
		}
		entitlement := fairRatePerSec*elapsedMS/1000 + 1 // refill + burst
		if float64(row.Offered) < entitlement {
			entitlement = float64(row.Offered)
		}
		xs = append(xs, float64(row.Admitted)/entitlement)
	}
	return jainIndex(xs)
}

// sortedTenantNames fixes map iteration order (maporder analyzer).
func sortedTenantNames(rows map[string]*overloadTenantRow) []string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²); 1 when xs is empty.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// p99 returns the 99th-percentile of xs (0 when empty).
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := (len(s)*99 + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}
