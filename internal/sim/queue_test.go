package sim

import (
	"fmt"
	"testing"
)

// Differential property test: the engine (4-ary heap plus same-instant
// batch dispatch) must be observationally indistinguishable from a
// sorted-slice reference model of the (at, seq) contract. Both are
// driven with the same fuzzed schedule/cancel/run stream derived from a
// seeded Source, and every observable — fire order, handle liveness,
// pending counts, NextEventTime at run boundaries — must match exactly.
// The 64-seed sweep covers same-instant FIFO ties, cancellation of
// batched siblings and of stale handles, and empty-queue edges.

// scheduler is the engine surface queueScript drives; *Engine and
// *refEngine both satisfy it.
type scheduler[H handle] interface {
	After(d Duration, label string, fn func()) H
	Cancel(h H)
	Step() bool
	Run()
	RunFor(d Duration)
	Now() Time
	Pending() int
	NextEventTime() Time
}

type handle interface {
	Pending() bool
	Time() Time
}

// refEngine is the reference model: pending events in an unsorted
// slice, the minimum (at, seq) found by a linear scan on every step.
// It shares no code with heap.go or the engine's batch dispatch.
type refEngine struct {
	now  Time
	seq  uint64
	pend []*refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

func (h *refEvent) Pending() bool { return h.live }

func (h *refEvent) Time() Time {
	if !h.live {
		return 0
	}
	return h.at
}

func (r *refEngine) After(d Duration, _ string, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	r.seq++
	ev := &refEvent{at: r.now.Add(d), seq: r.seq, fn: fn, live: true}
	r.pend = append(r.pend, ev)
	return ev
}

func (r *refEngine) Cancel(h *refEvent) {
	if h.live {
		r.unlink(h)
	}
}

func (r *refEngine) unlink(h *refEvent) {
	for i, ev := range r.pend {
		if ev == h {
			r.pend = append(r.pend[:i], r.pend[i+1:]...)
			break
		}
	}
	h.live = false
}

func (r *refEngine) min() *refEvent {
	var m *refEvent
	for _, ev := range r.pend {
		if m == nil || ev.at < m.at || (ev.at == m.at && ev.seq < m.seq) {
			m = ev
		}
	}
	return m
}

func (r *refEngine) Step() bool {
	m := r.min()
	if m == nil {
		return false
	}
	r.unlink(m)
	r.now = m.at
	m.fn()
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunFor(d Duration) {
	t := r.now.Add(d)
	for m := r.min(); m != nil && m.at <= t; m = r.min() {
		r.Step()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.pend) }

func (r *refEngine) NextEventTime() Time {
	if m := r.min(); m != nil {
		return m.at
	}
	return Forever
}

// queueScript drives one scheduler with a deterministic pseudo-random
// mix of operations and returns the observable trace. With drain it
// finishes by running the queue empty; without, events stay pending.
func queueScript[H handle](e scheduler[H], seed uint64, ops int, drain bool) []string {
	var out []string
	src := NewSource(seed) // scheduler-independent: both sides see the same ops
	var handles []H
	record := func(tag string) {
		out = append(out, fmt.Sprintf("%s now=%d pend=%d next=%d", tag, e.Now(), e.Pending(), e.NextEventTime()))
	}
	for i := 0; i < ops; i++ {
		switch op := src.Intn(100); {
		case op < 45: // schedule, biased to short deltas with a long tail
			var d Duration
			switch src.Intn(10) {
			case 0:
				d = Duration(src.Intn(1_000_000)) // far timer
			case 1:
				d = 0 // same-instant tie
			default:
				// Short IPI/timer delta on a coarse grid, so distinct
				// schedules often collide into same-instant batches.
				d = Duration(src.Intn(7)+1) * 100
			}
			label := fmt.Sprintf("ev%d", i)
			h := e.After(d, label, func() { out = append(out, "fire "+label) })
			handles = append(handles, h)
		case op < 60: // cancel a recent handle: live, batched or stale
			if len(handles) > 0 {
				e.Cancel(handles[len(handles)-1-src.Intn(min(len(handles), 16))])
			}
		case op < 70: // probe a random handle's liveness
			if len(handles) > 0 {
				j := src.Intn(len(handles))
				h := handles[j]
				out = append(out, fmt.Sprintf("probe %d pending=%v at=%d", j, h.Pending(), h.Time()))
			}
		case op < 90: // run a bounded slice
			e.RunFor(Duration(src.Intn(2000)))
			record("ran")
		default: // single step
			e.Step()
			record("stepped")
		}
	}
	if drain {
		e.Run()
		record("drained")
	}
	return out
}

func diffTraces(t *testing.T, what string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: trace diverges at %d:\nref:    %s\nengine: %s", what, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: trace length ref=%d engine=%d", what, len(want), len(got))
	}
}

func TestQueueDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		want := queueScript[*refEvent](&refEngine{}, seed, 400, true)
		got := queueScript[Event](NewEngine(seed), seed, 400, true)
		diffTraces(t, fmt.Sprintf("seed %d", seed), want, got)
	}
}

// TestQueueDifferentialReset replays the differential check across
// Reset boundaries: a reset engine — half the time with events still
// queued or batched at Reset — must match a fresh reference model,
// proving drain leaves no residue in the heap, the batch buffer or the
// handles.
func TestQueueDifferentialReset(t *testing.T) {
	e := NewEngine(7)
	for round := 0; round < 8; round++ {
		seed := uint64(100 + round)
		e.Reset(seed)
		ops := 300 + round*37
		drain := round%2 == 0
		want := queueScript[*refEvent](&refEngine{}, seed, ops, drain)
		got := queueScript[Event](e, seed, ops, drain)
		diffTraces(t, fmt.Sprintf("round %d", round), want, got)
		if !drain {
			// Leave a same-instant run partially dispatched for the
			// next Reset to discard.
			for i := 0; i < 3; i++ {
				e.After(0, "tie", func() {})
			}
			e.Step()
		}
	}
}
