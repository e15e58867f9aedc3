package membership

import (
	"encoding/json"
	"reflect"
	"testing"

	"sqpeer/internal/network"
)

// FuzzMembershipMessages feeds arbitrary payloads to every JSON seam a
// detector serves: the ping, ping-req, anti-entropy sync and push
// handlers and the piggybacked gossip blob. kind picks the seam. No
// payload may panic a handler, and one that does not decode as the
// seam's message must leave the member view as it was (and make the
// handler fail, where it returns an error).
func FuzzMembershipMessages(f *testing.F) {
	ping, _ := json.Marshal(pingMsg{From: "B", Updates: []Entry{{Peer: "C", Status: StatusSuspect, Incarnation: 2}}})
	pingReq, _ := json.Marshal(pingReqMsg{Target: "B", Updates: []Entry{{Peer: "A", Status: StatusDead, Incarnation: 9}}})
	sync, _ := json.Marshal(syncMsg{Digest: []DigestRow{{Peer: "C", Status: StatusAlive, Incarnation: 3, AdvEpoch: 4}}})
	push, _ := json.Marshal(pushMsg{From: "B", Entries: []Entry{{Peer: "D", Status: StatusAlive, Incarnation: 1, AdvEpoch: 1, Adv: json.RawMessage(`{"x":1}`)}}})
	gossip, _ := json.Marshal([]Entry{{Peer: "C", Status: StatusDead, Incarnation: 5}})
	for kind, body := range [][]byte{ping, pingReq, sync, push, gossip} {
		f.Add(uint8(kind), body)
		f.Add(uint8(kind), body[:len(body)/2])
	}
	f.Add(uint8(0), []byte("null"))
	f.Add(uint8(2), []byte(`{"digest":[{"peer":"","status":7}]}`))
	f.Add(uint8(4), []byte(`[{"peer":"A","status":-1,"incarnation":18446744073709551615}]`))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		net := network.New()
		d := New("A", net, Options{Seed: 1})
		New("B", net, Options{Seed: 1})
		d.SetLocalAdvertisement([]byte(`{"peer":"A"}`))
		d.Merge([]Entry{
			{Peer: "B", Status: StatusAlive, Incarnation: 1},
			{Peer: "C", Status: StatusSuspect, Incarnation: 2, AdvEpoch: 1, Adv: json.RawMessage(`{"peer":"C"}`)},
		})
		before := d.Members()
		msg := network.Message{From: "B", To: "A", Payload: payload}
		var err error
		var decodeErr error
		switch kind % 5 {
		case 0:
			decodeErr = json.Unmarshal(payload, &pingMsg{})
			_, err = d.handlePing(msg)
		case 1:
			decodeErr = json.Unmarshal(payload, &pingReqMsg{})
			_, err = d.handlePingReq(msg)
		case 2:
			decodeErr = json.Unmarshal(payload, &syncMsg{})
			_, err = d.handleSync(msg)
		case 3:
			decodeErr = json.Unmarshal(payload, &pushMsg{})
			_, err = d.handlePush(msg)
		default:
			if len(payload) > 0 {
				decodeErr = json.Unmarshal(payload, &[]Entry{})
			}
			d.HandleGossip("B", payload)
			err = decodeErr
		}
		if decodeErr == nil {
			return
		}
		if err == nil {
			t.Fatalf("kind %d: undecodable payload %q accepted", kind%5, payload)
		}
		if after := d.Members(); !reflect.DeepEqual(after, before) {
			t.Fatalf("kind %d: undecodable payload %q changed the view\nbefore %+v\nafter  %+v", kind%5, payload, before, after)
		}
	})
}
