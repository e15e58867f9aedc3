package exec

import (
	"testing"

	"sqpeer/internal/obs"
)

// The Results-packet fact fires once per packet: recording it must not
// allocate, with the event plane off or on (it has no event of its own).
func TestRecordResultsAllocatesNothing(t *testing.T) {
	for _, events := range []*obs.EventLog{nil, obs.NewEventLog(nil)} {
		e := &Engine{Self: "P1", Events: events}
		allocs := testing.AllocsPerRun(100, func() {
			e.record(fact{kind: factResults, count: 3, bytes: 120}, nil)
		})
		if allocs != 0 {
			t.Errorf("events=%v: %v allocs per Results fact, want 0", events != nil, allocs)
		}
		if m := e.Metrics(); m.RowsShipped != 3*101 || m.BytesShipped != 120*101 {
			t.Errorf("events=%v: folded %+v, want 303 rows and 12120 bytes", events != nil, m)
		}
		if n := events.Len(); n != 0 {
			t.Errorf("events=%v: Results fact emitted %d events", events != nil, n)
		}
	}
}
