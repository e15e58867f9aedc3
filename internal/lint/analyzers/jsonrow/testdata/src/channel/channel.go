// Package channel is a fixture mirror of the real sqpeer/internal/channel
// envelopes: the analyzer matches any package whose import path ends in
// "channel", so these shapes stand in for the real ones.
package channel

// Packet mirrors channel.Packet: no rows, but an envelope.
type Packet struct {
	Channel uint32
	Seq     int
	Payload []byte
}

// SubplanRequest mirrors channel.SubplanRequest.
type SubplanRequest struct {
	Channel uint32
	Plan    []byte
}

// PlanChangeInfo mirrors a control body that rides inside a packet's
// payload and stays JSON.
type PlanChangeInfo struct {
	Reason string
	Offset int
}
