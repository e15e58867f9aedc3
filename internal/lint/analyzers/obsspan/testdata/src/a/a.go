// Package a exercises the obsspan analyzer: discarded opens, opens
// that can return without End, and the three sanctioned idioms
// (defer-End, End-before-every-return, ownership hand-off).
package a

import "obs"

func sink(*obs.Span) {}

func give() *obs.Span { return nil }

// Discarded opens: nobody can ever End these.

func discardedExpr(sp *obs.Span) {
	sp.Child("scan", "discard") // want `discarded`
}

func discardedBlank(sp *obs.Span) {
	_ = sp.ChildAt("scan", "discard", "P2") // want `discarded`
}

// A return path that skips End leaks the span.

func returnSkipsEnd(sp *obs.Span, cond bool) error {
	c := sp.Child("scan", "leak") // want `left open`
	c.Annotate("rows", "3")
	if cond {
		return nil
	}
	c.End()
	return nil
}

func neverEnded() {
	r := obs.RemoteSpan("T1", "/q", "P2") // want `left open`
	r.Annotate("rows", "3")
}

// Sanctioned idiom 1: defer End.

func deferEnd(sp *obs.Span, cond bool) error {
	c := sp.Child("scan", "ok")
	defer c.End()
	if cond {
		return nil
	}
	c.Annotate("rows", "3")
	return nil
}

// Sanctioned idiom 2: End lexically before every later return.

func endBeforeReturns(sp *obs.Span, cond bool) error {
	c := sp.Child("scan", "ok")
	c.ChargeMS(1.5)
	c.End()
	if cond {
		return nil
	}
	return nil
}

func endThenFallOff(sp *obs.Span) {
	r := obs.RemoteSpan("T1", "/q", "P2")
	r.End()
}

// Sanctioned idiom 3: the span escapes to a new owner.

func escapesAsArg(sp *obs.Span) {
	c := sp.Child("scan", "ok")
	sink(c)
}

func escapesByReturn(sp *obs.Span) *obs.Span {
	c := sp.ChildAt("scan", "ok", "P3")
	return c
}

func escapesIntoClosure(sp *obs.Span) func() {
	c := sp.Child("scan", "ok")
	return func() { c.End() }
}

func escapesIntoStruct(sp *obs.Span) {
	type holder struct{ s *obs.Span }
	c := sp.Child("scan", "ok")
	h := holder{s: c}
	sink(h.s)
}

// Indexed stores are owned by the collection's closer, not this site.

func storedInSlice(sp *obs.Span, spans []*obs.Span) {
	spans[0] = sp.Child("scan", "ok")
}

// Rebinding an existing variable to a non-opener is not an open.

func rebindNotOpen(spans []*obs.Span) {
	var c *obs.Span
	if len(spans) > 0 {
		c = spans[0]
	}
	c.Annotate("rows", "3")
}

// give() is not an opener; its result is untracked.

func nonOpenerUntracked() {
	c := give()
	c.Annotate("rows", "3")
}

// Emit-after-End: a sealed span must not source new events.

func emitAfterEnd(sp *obs.Span, log *obs.EventLog) {
	c := sp.Child("scan", "sealed")
	c.End()
	c.EmitEvent(log, "exec", "shed") // want `after c.End\(\)`
}

// The same emit before End is the sanctioned shape.

func emitBeforeEnd(sp *obs.Span, log *obs.EventLog) {
	c := sp.Child("scan", "ok")
	c.EmitEvent(log, "exec", "shed", obs.Attr{Key: "site", Value: "P2"})
	c.End()
}

// defer-End runs at return, after every lexical emit: exempt.

func emitUnderDeferEnd(sp *obs.Span, log *obs.EventLog) {
	c := sp.Child("scan", "ok")
	defer c.End()
	c.EmitEvent(log, "exec", "dispatch")
}

// Ending one span and emitting on a still-open ancestor is the
// documented fix, not a violation.

func emitOnOpenAncestor(sp *obs.Span, log *obs.EventLog) {
	parent := sp.Child("join", "ok")
	c := parent.Child("scan", "ok")
	c.End()
	parent.EmitEvent(log, "exec", "resume")
	parent.End()
}

// Emit-after-End is flagged even when the span later escapes: the End
// sealed it for every holder.

func emitAfterEndThenEscape(sp *obs.Span, log *obs.EventLog) {
	c := sp.Child("scan", "sealed")
	c.End()
	c.EmitEvent(log, "exec", "retry") // want `after c.End\(\)`
	sink(c)
}

// record(fact, span) emits the recorded fact's events correlated to the
// span: recording on an ended span is emit-after-End too, although the
// span is passed as an argument rather than being the receiver.

type engine struct{}

func (engine) record(kind string, sp *obs.Span) {}

func recordAfterEnd(e engine, sp *obs.Span) {
	c := sp.Child("shed", "sealed")
	c.End()
	e.record("shed", c) // want `after c.End\(\)`
}

func recordBeforeEnd(e engine, sp *obs.Span) {
	c := sp.Child("shed", "ok")
	e.record("shed", c)
	c.End()
}

// A record call hands nothing over: the span must still be closed.

func recordThenLeak(e engine, sp *obs.Span) {
	c := sp.Child("migrate", "leak") // want `left open`
	e.record("migrate", c)
}
