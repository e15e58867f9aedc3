package membership

// Anti-entropy: the pull/push digest exchange that reconciles full
// membership and advertisement state between two peers. Gossip
// piggybacks (membership.go) spread status transitions fast but are
// status-only and best-effort; the sync pass is the convergence
// backstop — any two alive peers that complete one exchange hold
// identical entries for every peer either of them knows, because both
// components of the merge (status by incarnation, advertisement by
// epoch) are monotone joins.
//
// The exchange is one round trip plus an optional push:
//
//	A -> B  member.sync  digest: (peer, status, incarnation, advEpoch) rows
//	B -> A  reply        entries B holds fresher than A's digest,
//	                     plus Want: peers where A's digest is fresher
//	A -> B  member.push  the full entries B asked for
//
// Digest rows double as status gossip: B merges each row's status
// component directly, so a sync also propagates suspicions and deaths
// even when no advertisement moved.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
)

// DigestRow summarizes one entry for the sync exchange: everything
// needed to order two copies without shipping the blob.
type DigestRow struct {
	Peer        pattern.PeerID `json:"peer"`
	Status      Status         `json:"status"`
	Incarnation uint64         `json:"incarnation"`
	AdvEpoch    uint64         `json:"advEpoch"`
}

// syncMsg opens an anti-entropy exchange with the sender's full digest.
type syncMsg struct {
	From   pattern.PeerID `json:"from"`
	Digest []DigestRow    `json:"digest"`
}

// syncAck answers with the entries the responder holds fresher, and the
// peers it wants full entries for.
type syncAck struct {
	Entries []Entry          `json:"entries,omitempty"`
	Want    []pattern.PeerID `json:"want,omitempty"`
}

// pushMsg delivers the entries a responder asked for.
type pushMsg struct {
	From    pattern.PeerID `json:"from"`
	Entries []Entry        `json:"entries,omitempty"`
}

// digestLocked builds the full sorted digest of this view (self
// included — that row carries the local incarnation and advertisement
// epoch to the partner). Callers hold d.mu.
func (d *Detector) digestLocked() []DigestRow {
	rows := make([]DigestRow, 0, len(d.members))
	for _, m := range d.members {
		rows = append(rows, DigestRow{
			Peer:        m.entry.Peer,
			Status:      m.entry.Status,
			Incarnation: m.entry.Incarnation,
			AdvEpoch:    m.entry.AdvEpoch,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Peer < rows[j].Peer })
	return rows
}

// fullEntryLocked copies the complete entry (blob included) for peer.
// Callers hold d.mu.
func (d *Detector) fullEntryLocked(peer pattern.PeerID) (Entry, bool) {
	m, ok := d.members[peer]
	if !ok {
		return Entry{}, false
	}
	e := m.entry
	e.Adv = append(json.RawMessage(nil), m.entry.Adv...)
	return e, true
}

// fresherThanLocked reports whether the local entry for row.Peer is
// strictly fresher than the digest row in either component. Callers
// hold d.mu.
func (d *Detector) fresherThanLocked(row DigestRow) bool {
	m, ok := d.members[row.Peer]
	if !ok {
		return false
	}
	e := m.entry
	if e.Incarnation > row.Incarnation ||
		(e.Incarnation == row.Incarnation && e.Status > row.Status) {
		return true
	}
	return e.AdvEpoch > row.AdvEpoch
}

// SyncWith runs one full anti-entropy exchange with partner. On return
// (nil error) both sides hold entries at least as fresh as the other
// had for every peer either knew.
func (d *Detector) SyncWith(partner pattern.PeerID) error {
	d.mu.Lock()
	d.stats.SyncCalls++
	digest := d.digestLocked()
	d.mu.Unlock()
	body, err := json.Marshal(syncMsg{From: d.self, Digest: digest})
	if err != nil {
		return err
	}
	reply, err := d.net.CallWithin(d.self, partner, "member.sync", body, rpcDeadlineMS)
	if err != nil {
		return err
	}
	var ack syncAck
	if err := json.Unmarshal(reply, &ack); err != nil {
		return fmt.Errorf("membership %s: bad sync ack from %s: %w", d.self, partner, err)
	}
	d.Merge(ack.Entries)
	d.Events.Emit("membership", "antientropy", string(d.self), "",
		obs.A("partner", string(partner)),
		obs.A("entries", strconv.Itoa(len(ack.Entries))),
		obs.A("want", strconv.Itoa(len(ack.Want))))
	if len(ack.Want) == 0 {
		return nil
	}
	d.mu.Lock()
	push := make([]Entry, 0, len(ack.Want))
	for _, p := range ack.Want {
		if e, ok := d.fullEntryLocked(p); ok {
			push = append(push, e)
		}
	}
	d.stats.SyncPushes++
	d.mu.Unlock()
	body, err = json.Marshal(pushMsg{From: d.self, Entries: push})
	if err != nil {
		return err
	}
	return d.net.SendWithin(d.self, partner, "member.push", body, rpcDeadlineMS)
}

// handleSync answers an anti-entropy open: merge the digest's status
// components, return every entry held fresher than the digest, and ask
// for every peer the digest holds fresher.
func (d *Detector) handleSync(msg network.Message) ([]byte, error) {
	var sm syncMsg
	if err := json.Unmarshal(msg.Payload, &sm); err != nil {
		return nil, fmt.Errorf("membership %s: bad sync: %w", d.self, err)
	}
	d.mu.Lock()
	d.stats.SyncServed++
	var events []event
	seen := make(map[pattern.PeerID]bool, len(sm.Digest))
	var ack syncAck
	for _, row := range sm.Digest {
		seen[row.Peer] = true
		// A digest row is status gossip too: adopt the fresher verdict
		// (advertisement blobs only move via entries/pushes).
		d.mergeLocked([]Entry{{Peer: row.Peer, Status: row.Status, Incarnation: row.Incarnation}}, &events)
		if d.fresherThanLocked(row) {
			if e, ok := d.fullEntryLocked(row.Peer); ok {
				ack.Entries = append(ack.Entries, e)
			}
		}
		m, ok := d.members[row.Peer]
		if row.AdvEpoch > 0 && (!ok || m.entry.AdvEpoch < row.AdvEpoch) {
			ack.Want = append(ack.Want, row.Peer)
		}
	}
	// Entries the digest did not mention at all are news to the caller.
	extra := make([]pattern.PeerID, 0)
	for id := range d.members {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, id := range extra {
		if e, ok := d.fullEntryLocked(id); ok {
			ack.Entries = append(ack.Entries, e)
		}
	}
	sort.Slice(ack.Want, func(i, j int) bool { return ack.Want[i] < ack.Want[j] })
	d.mu.Unlock()
	d.fire(events)
	return json.Marshal(ack)
}

// handlePush merges the entries a sync partner shipped after seeing our
// digest was stale.
func (d *Detector) handlePush(msg network.Message) ([]byte, error) {
	var pm pushMsg
	if err := json.Unmarshal(msg.Payload, &pm); err != nil {
		return nil, fmt.Errorf("membership %s: bad push: %w", d.self, err)
	}
	d.Merge(pm.Entries)
	return nil, nil
}
