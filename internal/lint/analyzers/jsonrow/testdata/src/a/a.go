// Package a exercises the jsonrow analyzer: JSON touching row-carrying
// rql types or the channel envelopes is flagged — directly, through
// pointers, slices, and struct embedding — and so is JSON of a
// query-path body (a routing request or reply, or a statistics payload)
// itself, while control-plane JSON and advertisements that carry
// statistics in a field stay legal.
package a

import (
	"encoding/json"

	"channel"
	"pattern"
	"rql"
	"stats"
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

// advertisement is set-up traffic: it carries statistics and an
// active-schema in its fields, and stays JSON.
type advertisement struct {
	Peer   string
	Active *pattern.ActiveSchema
	Stats  *stats.PeerStats
}

func badBody(q *pattern.QueryPattern, ann pattern.Annotated, payload []byte) {
	_, _ = json.Marshal(q)   // want `json\.Marshal of query-path body pattern\.QueryPattern`
	_, _ = json.Marshal(ann) // want `json\.Marshal of query-path body pattern\.Annotated`
	var back pattern.Annotated
	_ = json.Unmarshal(payload, &back) // want `json\.Unmarshal of query-path body pattern\.Annotated`
	var ps stats.PeerStats
	_ = json.Unmarshal(payload, &ps) // want `json\.Unmarshal of query-path body stats\.PeerStats`
	all := map[string][]*stats.PeerStats{}
	_, _ = json.Marshal(all) // want `json\.Marshal of query-path body stats\.PeerStats`
}

func cleanBody(adv advertisement, as *pattern.ActiveSchema, payload []byte) {
	_, _ = json.Marshal(adv) // advertisements stay JSON
	_, _ = json.Marshal(as)
	var got advertisement
	_ = json.Unmarshal(payload, &got)
	var pp pattern.PathPattern
	_ = json.Unmarshal(payload, &pp)
}
