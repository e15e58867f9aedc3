package admission

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sqpeer/internal/network"
	"sqpeer/internal/obs"
)

// stepClock is a hand-advanced logical clock for tests.
type stepClock struct{ ms float64 }

func (s *stepClock) now() float64 { return s.ms }

func TestTokenBucketRefillOnLogicalClock(t *testing.T) {
	clk := &stepClock{}
	c := NewController(Config{RatePerSec: 100, Burst: 2, Clock: clk.now})
	q := QoS{Tenant: "a", Priority: Normal}
	// Burst of 2 admits twice, then rejects.
	for i := 0; i < 2; i++ {
		if err := c.AdmitQuery(q, 0); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		c.Done()
	}
	err := c.AdmitQuery(q, 0)
	if err == nil {
		t.Fatal("third admission should be rate-rejected")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "rate" {
		t.Fatalf("want rate OverloadError, got %#v", err)
	}
	// 100/s = one token per 10ms; the hint should say so.
	if oe.RetryAfterMS <= 0 || oe.RetryAfterMS > 10.01 {
		t.Fatalf("retry-after = %v, want (0,10]", oe.RetryAfterMS)
	}
	// Advance the clock past the hint: admission succeeds again.
	clk.ms += oe.RetryAfterMS
	if err := c.AdmitQuery(q, 0); err != nil {
		t.Fatalf("post-refill admission: %v", err)
	}
	c.Done()
}

func TestOverloadErrorIsTransientWithReason(t *testing.T) {
	c := NewController(Config{RatePerSec: 1, Burst: 1})
	q := QoS{Tenant: "t", Priority: Low}
	if err := c.AdmitQuery(q, 0); err != nil {
		t.Fatalf("first: %v", err)
	}
	err := c.AdmitQuery(q, 0)
	if err == nil {
		t.Fatal("want rejection")
	}
	// The satellite contract: overload rejections classify as transient
	// delivery failures via the errors.Is/As discipline, even through
	// fmt wrapping (as the network handler path does).
	wrapped := fmt.Errorf("network: sub(P0→P1): %w", err)
	if !network.Transient(wrapped) {
		t.Fatal("OverloadError must classify as network.Transient")
	}
	var de *network.DeliveryError
	if !errors.As(wrapped, &de) || de.Reason != network.ReasonOverload {
		t.Fatalf("want DeliveryError reason %q, got %#v", network.ReasonOverload, de)
	}
	if !IsOverload(wrapped) {
		t.Fatal("IsOverload must see through wrapping")
	}
	if after, ok := RetryAfterHint(wrapped); !ok || after <= 0 {
		t.Fatalf("RetryAfterHint = %v,%v", after, ok)
	}
}

func TestWatermarksRejectAndShedByPriority(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 10}) // watermarks 0.5/0.8/1
	adm := func(p Priority) error { return c.AdmitWork(QoS{Tenant: "t", Priority: p}) }
	// Fill to 5: low now rejected, normal and high still admitted.
	for i := 0; i < 5; i++ {
		if err := adm(High); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := adm(Low); err == nil {
		t.Fatal("low should be rejected at occupancy 5/10")
	} else if after, ok := RetryAfterHint(err); !ok || after <= 0 {
		t.Fatalf("load rejection hint = %v,%v", after, ok)
	}
	if c.ShouldShed(Low) {
		t.Fatal("low shed line is strictly above its admission line")
	}
	if err := adm(Normal); err != nil {
		t.Fatalf("normal at 5/10: %v", err)
	}
	// Push occupancy to 6: past low's watermark → low sheds.
	if !c.ShouldShed(Low) {
		t.Fatal("low should shed at occupancy 6/10")
	}
	if c.ShouldShed(Normal) || c.ShouldShed(High) {
		t.Fatal("normal/high must not shed at 6/10")
	}
	// Fill to capacity: normal rejected past 8, high admitted to 10,
	// never shed.
	for i := 6; i < 8; i++ {
		if err := adm(Normal); err != nil {
			t.Fatalf("normal fill %d: %v", i, err)
		}
	}
	if err := adm(Normal); err == nil {
		t.Fatal("normal should be rejected at 8/10")
	}
	for i := 8; i < 10; i++ {
		if err := adm(High); err != nil {
			t.Fatalf("high fill %d: %v", i, err)
		}
	}
	if err := adm(High); err == nil {
		t.Fatal("high should be rejected at 10/10")
	}
	if !c.ShouldShed(Normal) {
		t.Fatal("normal should shed at 10/10")
	}
	if c.ShouldShed(High) {
		t.Fatal("high is never shed")
	}
	c.Done()
	if err := adm(High); err != nil {
		t.Fatalf("high after Done: %v", err)
	}
}

func TestLeaseModeExpiresOnClock(t *testing.T) {
	clk := &stepClock{}
	c := NewController(Config{MaxConcurrent: 2, HoldMS: 50, Clock: clk.now})
	q := QoS{Tenant: "t", Priority: High}
	if err := c.AdmitWork(q); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitWork(q); err != nil {
		t.Fatal(err)
	}
	c.Done() // no-op in lease mode
	if got := c.Occupancy(); got != 2 {
		t.Fatalf("occupancy = %d, want 2 (Done is a lease-mode no-op)", got)
	}
	err := c.AdmitWork(q)
	if err == nil {
		t.Fatal("third admission should be load-rejected")
	}
	after, ok := RetryAfterHint(err)
	if !ok || after != 50 {
		t.Fatalf("hint should be the earliest lease expiry (50ms), got %v,%v", after, ok)
	}
	clk.ms = 51
	if got := c.Occupancy(); got != 0 {
		t.Fatalf("occupancy after expiry = %d, want 0", got)
	}
	if err := c.AdmitWork(q); err != nil {
		t.Fatalf("post-expiry admission: %v", err)
	}
}

func TestHopelessRejectionSkipsRetryHint(t *testing.T) {
	c := NewController(Config{RatePerSec: 1, Burst: 1}) // refill: 1000ms/token
	q := QoS{Tenant: "t", Priority: Normal}
	if err := c.AdmitQuery(q, 0); err != nil {
		t.Fatal(err)
	}
	err := c.AdmitQuery(q, 100) // 100ms budget < 1000ms refill
	var oe *OverloadError
	if !errors.As(err, &oe) || !oe.Hopeless {
		t.Fatalf("want hopeless rejection, got %#v", err)
	}
	if _, ok := RetryAfterHint(err); ok {
		t.Fatal("hopeless rejections must not advertise a retry hint")
	}
	if !network.Transient(err) {
		t.Fatal("still transient: the condition clears, just not in budget")
	}
}

func TestDisabledControllerAdmitsEverything(t *testing.T) {
	c := NewController(Config{RatePerSec: 1, Burst: 1, MaxConcurrent: 1, Disabled: true})
	for i := 0; i < 100; i++ {
		if err := c.AdmitQuery(QoS{Tenant: "t"}, 0); err != nil {
			t.Fatalf("disabled controller rejected: %v", err)
		}
	}
	if c.ShouldShed(Low) {
		t.Fatal("disabled controller must not shed")
	}
	if !c.Disabled() {
		t.Fatal("Disabled() should report true")
	}
	var nilC *Controller
	if err := nilC.AdmitQuery(QoS{}, 0); err != nil {
		t.Fatal("nil controller admits")
	}
	nilC.Done()
	nilC.RecordShed(QoS{})
	if nilC.ShouldShed(Low) || nilC.Occupancy() != 0 || !nilC.Disabled() {
		t.Fatal("nil controller is inert")
	}
}

func TestCollectObsDeterministicAndFair(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 100})
	for i := 0; i < 4; i++ {
		_ = c.AdmitWork(QoS{Tenant: "a", Priority: Normal})
		_ = c.AdmitWork(QoS{Tenant: "b", Priority: Normal})
	}
	c.RecordShed(QoS{Tenant: "b"})
	snapshot := func() string {
		reg := obs.NewRegistry()
		reg.RegisterCollector("adm", func(g *obs.Gather) { c.CollectObs(g) })
		return fmt.Sprintf("%+v", reg.Snapshot())
	}
	s1, s2 := snapshot(), snapshot()
	if s1 != s2 {
		t.Fatalf("snapshot not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	snap := snapshot()
	for _, want := range []string{"adm_admitted_total", "adm_shed_total", "adm_fairness_jain", "adm_occupancy"} {
		if !contains(snap, want) {
			t.Fatalf("snapshot missing %s:\n%s", want, snap)
		}
	}
	// Equal admissions → Jain index 1.
	if got := jain([]tenantStats{{Admitted: 4}, {Admitted: 4}}); got != 1 {
		t.Fatalf("jain(equal) = %v, want 1", got)
	}
	// Total capture by one of two tenants → 0.5.
	if got := jain([]tenantStats{{Admitted: 8}, {Admitted: 0}}); got != 0.5 {
		t.Fatalf("jain(capture) = %v, want 0.5", got)
	}
	if got := jain(nil); got != 1 {
		t.Fatalf("jain(empty) = %v, want 1", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRetryAfterHintCrossesGateway: a rejection raised by a remote
// peer's admission controller and read through the TCP gateway keeps its
// retry-after hint, so the executor's retry loop waits out the remote's
// hint instead of falling back to blind backoff. A hopeless rejection
// crosses without one.
func TestRetryAfterHintCrossesGateway(t *testing.T) {
	clk := &stepClock{}
	c := NewController(Config{RatePerSec: 100, Burst: 1, Clock: clk.now})
	n := network.New()
	n.AddNode("A")
	var mu sync.Mutex // the handler runs on the gateway's goroutine
	var local error
	n.Handle("A", "work", func(m network.Message) ([]byte, error) {
		deadline := 0.0
		if string(m.Payload) == "tight" {
			deadline = 1 // below the 10 ms hint: hopeless
		}
		err := c.AdmitQuery(QoS{Tenant: "t"}, deadline)
		mu.Lock()
		local = err
		mu.Unlock()
		return nil, err
	})
	g, err := network.ServeTCP(n, "A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cl, err := network.DialTCP(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Call("x", "work", nil); err != nil {
		t.Fatalf("first call within burst: %v", err)
	}
	_, err = cl.Call("x", "work", nil)
	mu.Lock()
	want, wantOK := RetryAfterHint(local)
	mu.Unlock()
	if !wantOK || want <= 0 {
		t.Fatalf("in-process hint = %v, %v; want a positive hint", want, wantOK)
	}
	if got, ok := RetryAfterHint(err); !ok || got != want {
		t.Errorf("hint over tcp = %v, %v; want %v, true (error %v)", got, ok, want, err)
	}
	if !network.Transient(err) {
		t.Errorf("remote overload %v is not transient over tcp", err)
	}
	if _, err := cl.Call("x", "work", []byte("tight")); err == nil {
		t.Fatal("hopeless call admitted")
	} else if got, ok := RetryAfterHint(err); ok {
		t.Errorf("hopeless rejection crossed with hint %v", got)
	}
}
