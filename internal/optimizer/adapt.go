package optimizer

import (
	"fmt"
	"sort"
	"sync"

	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/routing"
)

// Replan implements the run-time adaptation of §2.5: when peers become
// obsolete (failed channel, departure, throughput collapse), the channel's
// root node re-executes routing and processing "not taking into
// consideration those peers that became obsolete". Concretely: obsolete
// peers still present in the router's registry are quarantined (bumping
// the registry epoch, so this and every subsequent Route excludes them
// with no per-call filtering), the router re-annotates the query, and the
// annotation is recompiled. Following ubQL semantics, callers discard
// intermediate results of the old plan and restart execution on the
// returned plan.
//
// Replan fails when a path pattern is left with no alternative peer — the
// query cannot currently be answered. The partial plan (holes standing in
// for the unanswerable patterns) is still returned alongside the error, so
// ad-hoc callers can propagate it or execute its answerable part.
func Replan(p *plan.Plan, obsolete map[pattern.PeerID]bool, router *routing.Router) (*plan.Plan, error) {
	touched := false
	for _, s := range plan.Scans(p.Root) {
		if !s.IsHole() && obsolete[s.Peer] {
			touched = true
			break
		}
	}
	if !touched {
		return p, nil // nothing to do
	}
	// Make routing itself forget the obsolete peers before re-routing:
	// callers may not have told the registry yet (e.g. a failure observed
	// mid-execution), and post-filtering the annotation here would leave
	// every later Route call seeing the bad peer again.
	for peer := range obsolete {
		router.Registry.Quarantine(peer)
	}
	ann := router.Route(p.Query)
	replanned, err := plan.Generate(ann)
	if err != nil {
		return nil, fmt.Errorf("optimizer: replan: %w", err)
	}
	if !ann.Complete() {
		return replanned, fmt.Errorf("optimizer: replan left unresolved holes for %v", ann.Holes())
	}
	return replanned, nil
}

// ThroughputMonitor tracks per-channel row throughput and flags channels
// whose observed rate collapses below a floor — the paper's run-time
// trigger ("the optimizer may alter a running query plan by observing the
// throughput of a certain channel"). It is safe for concurrent use:
// the executor's packet callbacks Observe from many branches at once.
type ThroughputMonitor struct {
	// MinRowsPerTick is the floor below which a channel is flagged.
	MinRowsPerTick int

	mu      sync.Mutex
	counts  map[pattern.PeerID]int
	flagged map[pattern.PeerID]bool
}

// NewThroughputMonitor returns a monitor with the given per-tick floor.
func NewThroughputMonitor(minRowsPerTick int) *ThroughputMonitor {
	return &ThroughputMonitor{
		MinRowsPerTick: minRowsPerTick,
		counts:         map[pattern.PeerID]int{},
		flagged:        map[pattern.PeerID]bool{},
	}
}

// Observe records rows received from a peer since the last tick.
func (m *ThroughputMonitor) Observe(peer pattern.PeerID, rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[peer] += rows
}

// Tick closes the current observation window: every peer whose count is
// below the floor is flagged obsolete; counters reset. It returns the
// peers newly flagged this tick, sorted; a peer stays flagged, and is
// not reported again, until Unflag.
func (m *ThroughputMonitor) Tick() []pattern.PeerID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var newly []pattern.PeerID
	for peer, n := range m.counts {
		if n < m.MinRowsPerTick && !m.flagged[peer] {
			m.flagged[peer] = true
			newly = append(newly, peer)
		}
		m.counts[peer] = 0
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i] < newly[j] })
	return newly
}

// Track registers a peer so that total silence (no Observe calls at all)
// still trips the monitor at the next Tick.
func (m *ThroughputMonitor) Track(peer pattern.PeerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.counts[peer]; !ok {
		m.counts[peer] = 0
	}
}

// Unflag forgets that a peer was flagged, e.g. after the executor has
// replanned around it (so a later reinstatement starts clean).
func (m *ThroughputMonitor) Unflag(peer pattern.PeerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.flagged, peer)
	delete(m.counts, peer)
}
