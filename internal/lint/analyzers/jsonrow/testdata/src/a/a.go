// Package a exercises the jsonrow analyzer: JSON touching row-carrying
// rql types or the channel envelopes is flagged — directly, through
// pointers, slices, and struct embedding — while control-plane JSON
// stays legal.
package a

import (
	"encoding/json"

	"channel"
	"rql"
)

// resultsBody embeds rows one level down, the way a wire body would.
type resultsBody struct {
	Seq  int
	Rows *rql.ResultSet
}

// planChange is a control body: no rows anywhere in its type.
type planChange struct {
	Reason string
	Offset int
}

func bad(rs *rql.ResultSet, rows []rql.Row, b rql.Batch, m map[string]rql.Row) {
	_, _ = json.Marshal(rs)                // want `json\.Marshal of row-carrying type rql\.ResultSet`
	_, _ = json.Marshal(rows)              // want `json\.Marshal of row-carrying type rql\.Row`
	_, _ = json.Marshal(m)                 // want `json\.Marshal of row-carrying type rql\.Row`
	_, _ = json.MarshalIndent(b, "", "  ") // want `json\.MarshalIndent of row-carrying type rql\.Batch`
	_, _ = json.Marshal(resultsBody{})     // want `json\.Marshal of row-carrying type rql\.ResultSet`

	var dst rql.ResultSet
	_ = json.Unmarshal(nil, &dst) // want `json\.Unmarshal of row-carrying type rql\.ResultSet`
	var batches []rql.Batch
	_ = json.Unmarshal(nil, &batches) // want `json\.Unmarshal of row-carrying type rql\.Batch`
}

// resendLog holds envelopes one level down: no rows anywhere, so only
// the envelope rule flags it.
type resendLog struct {
	Pending []*channel.Packet
}

func badEnvelope(p channel.Packet, payload []byte) {
	_, _ = json.Marshal(p)           // want `json\.Marshal of data-plane envelope channel\.Packet`
	_, _ = json.Marshal(resendLog{}) // want `json\.Marshal of data-plane envelope channel\.Packet`
	var req channel.SubplanRequest
	_ = json.Unmarshal(payload, &req) // want `json\.Unmarshal of data-plane envelope channel\.SubplanRequest`
}

func clean(pc planChange, payload []byte) {
	_, _ = json.Marshal(pc) // control packets stay JSON
	var got planChange
	_ = json.Unmarshal(payload, &got)
	type envelope struct {
		ChannelID string
		Payload   []byte
	}
	_, _ = json.Marshal(envelope{Payload: payload}) // opaque payload bytes are fine
	var info channel.PlanChangeInfo
	_ = json.Unmarshal(payload, &info) // control bodies inside a packet stay JSON
}
