package peer

import (
	"encoding/json"
	"reflect"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
)

// FuzzAdvertisement feeds arbitrary payloads to the advertisement push
// handler. No payload may panic it, or the routing of a query over what
// it registered, and one that does not decode as an Advertisement must
// fail the push and leave the routing registry and the statistics
// catalog as they were.
func FuzzAdvertisement(f *testing.F) {
	net := network.New()
	bases := gen.PaperBases(2)
	var advs [][]byte
	for _, id := range []pattern.PeerID{"P2", "P3"} {
		p, err := New(Config{ID: id, Kind: SimplePeer, Schema: gen.PaperSchema(), Base: bases[id]}, net)
		if err != nil {
			f.Fatalf("New(%s): %v", id, err)
		}
		adv, err := json.Marshal(p.Advertisement())
		if err != nil {
			f.Fatalf("marshal %s advertisement: %v", id, err)
		}
		advs = append(advs, adv)
	}
	for _, adv := range advs {
		f.Add(adv)
		f.Add(adv[:len(adv)/2])
	}
	f.Add([]byte(`{"peer":"X","activeSchema":{"patterns":[{"property":""}]}}`))
	f.Add([]byte(`{"peer":"X","stats":{"peer":"Y","card":{"a":-1}}}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		net := network.New()
		p, err := New(Config{ID: "P1", Kind: SimplePeer, Schema: gen.PaperSchema(), Base: bases["P1"]}, net)
		if err != nil {
			t.Fatalf("New(P1): %v", err)
		}
		var known Advertisement
		if err := json.Unmarshal(advs[0], &known); err != nil {
			t.Fatalf("seed advertisement: %v", err)
		}
		p.Learn(&known)
		epoch, peers, catalog := p.Registry.Epoch(), p.Registry.Peers(), p.Catalog.String()
		_, err = p.handleAdvPush(network.Message{From: "X", To: "P1", Kind: "adv.push", Payload: payload})
		if json.Unmarshal(payload, &Advertisement{}) == nil {
			p.Router.Route(gen.PaperQuery())
			return
		}
		if err == nil {
			t.Fatalf("undecodable advertisement %q accepted", payload)
		}
		if p.Registry.Epoch() != epoch || !reflect.DeepEqual(p.Registry.Peers(), peers) || p.Catalog.String() != catalog {
			t.Fatalf("undecodable advertisement %q changed the registry or the catalog", payload)
		}
	})
}
