package rql

import "testing"

// firstElem identifies a buffer's backing array.
func firstElem(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

// A buffer put twice must land in the pool once: two subsequent Gets
// aliasing the same array would hand one set of bytes to two encoders.
func TestPutWireBufDoublePutDoesNotAlias(t *testing.T) {
	buf := GetWireBuf()
	buf = append(buf, 0x01, 0x02, 0x03)
	PutWireBuf(buf)
	PutWireBuf(buf) // buggy caller returns the same buffer again

	b1 := GetWireBuf()
	b2 := GetWireBuf()
	if p1, p2 := firstElem(b1), firstElem(b2); p1 != nil && p1 == p2 {
		t.Fatal("double put poisoned the pool: two Gets share one backing array")
	}
	PutWireBuf(b1)
	PutWireBuf(b2)
}

// tracked reports whether the double-put guard holds key as pooled.
func tracked(key *byte) bool {
	pooledBufs.mu.Lock()
	defer pooledBufs.mu.Unlock()
	_, ok := pooledBufs.set[key]
	return ok
}

// A normal put/get cycle still recycles: the guard must not tax the
// single-put fast path by refusing legitimate reuse.
func TestPutWireBufRecyclesAfterGet(t *testing.T) {
	buf := GetWireBuf()
	p := firstElem(buf)
	PutWireBuf(buf)
	got := GetWireBuf()
	// sync.Pool may drop any put item (under -race it drops one in four
	// on purpose), so whether got is buf is up to the pool. When it is,
	// taking it back out must have re-armed the tracking set, or the
	// next put of this buffer would be refused as a double put.
	if p != nil && firstElem(got) == p && tracked(p) {
		t.Fatal("get did not re-arm the tracking set: second cycle would refuse a legitimate put")
	}
	PutWireBuf(got)
	if p != nil && firstElem(got) == p && !tracked(p) {
		t.Fatal("second cycle refused a legitimate put")
	}
}

// Oversized buffers are dropped so one giant frame cannot pin megabytes
// in the pool; zero-cap buffers are dropped because they cannot be
// identity-tracked (and pooling them is pointless anyway).
func TestPutWireBufDropsOversizedAndDegenerate(t *testing.T) {
	big := make([]byte, 0, maxPooledCap+1)
	p := firstElem(big)
	PutWireBuf(big)
	for i := 0; i < 8; i++ {
		got := GetWireBuf()
		if firstElem(got) == p {
			t.Fatal("oversized buffer was pooled")
		}
		if cap(got) > maxPooledCap {
			t.Fatalf("pool returned a %d-cap buffer", cap(got))
		}
	}
	PutWireBuf(nil)           // must not panic
	PutWireBuf([]byte{}[0:0]) // zero-cap, must not panic or pool
}
