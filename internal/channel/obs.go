package channel

import (
	"sort"

	"sqpeer/internal/obs"
)

// CollectObs publishes the manager's packet accounting into an obs
// gather under the unified naming scheme. Intended to be called from a
// registered snapshot-time collector; the Stats() accessor remains the
// direct compatibility path.
func (s ManagerStats) CollectObs(g *obs.Gather, labels ...obs.Label) {
	g.Count("channel_packets_sent_total", float64(s.PacketsSent), labels...)
	g.Count("channel_payload_bytes_sent_total", float64(s.PayloadBytesSent), labels...)
	g.Count("channel_packets_accepted_total", float64(s.PacketsAccepted), labels...)
	g.Count("channel_packets_duplicate_total", float64(s.PacketsDuplicate), labels...)
	g.Count("channel_opens_total", float64(s.ChannelsOpened), labels...)
	g.Count("channel_accepts_total", float64(s.ChannelsAccepted), labels...)
	g.Count("channel_closes_total", float64(s.ChannelsClosed), labels...)
	g.Count("channel_gossip_piggybacked_total", float64(s.GossipPiggybacked), labels...)
	tenants := make([]string, 0, len(s.TenantAccepts))
	for t := range s.TenantAccepts {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		name := t
		if name == "" {
			name = "untagged"
		}
		tl := append(append([]obs.Label{}, labels...), obs.L("tenant", name))
		g.Count("channel_tenant_accepts_total", float64(s.TenantAccepts[t]), tl...)
	}
}
