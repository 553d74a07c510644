package sim

import "fmt"

// Timer is a re-armable one-shot timer bound to an engine. It wraps the
// cancel-and-reschedule pattern used pervasively by periodic hardware
// timers and watchdogs in the models.
//
// A timer that usually gets disarmed before it fires need not be queued
// at all: Reserve takes the engine sequence number an Arm made now would
// get, and ArmReserved queues the expiry later, only once it is known it
// can fire, under that earlier number. Among events at its instant the
// expiry then fires exactly where the eager Arm's would have, and every
// other event keeps the sequence number it would have had.
//
// The label is fixed at construction and the expiry callback is bound
// once, so arming allocates nothing.
type Timer struct {
	eng   *Engine
	ev    Event
	label string
	fn    func()
	fire  func() // t.expire, bound once
	// rseq is the latest reservation and repoch the engine life
	// (Engine.resets) it was taken in.
	rseq   uint64
	repoch uint64
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
func NewTimer(eng *Engine, label string, fn func()) *Timer {
	t := &Timer{eng: eng, label: label, fn: fn}
	t.fire = t.expire
	return t
}

func (t *Timer) expire() {
	t.ev = Event{}
	t.fn()
}

// Arm (re)schedules the timer to fire after d. Any previously pending
// expiry is cancelled.
func (t *Timer) Arm(d Duration) {
	t.Disarm()
	t.ev = t.eng.After(d, t.label, t.fire)
}

// ArmAt (re)schedules the timer to fire at absolute time at.
func (t *Timer) ArmAt(at Time) {
	t.Disarm()
	t.ev = t.eng.At(at, t.label, t.fire)
}

// Reserve takes the engine sequence number an Arm made now would get,
// and queues nothing. Pass it to ArmReserved to arm the timer later in
// the same-instant order of now.
func (t *Timer) Reserve() uint64 {
	t.rseq, t.repoch = t.eng.reserve(), t.eng.resets
	return t.rseq
}

// ArmReserved (re)schedules the timer to fire at absolute time at under
// seq, the timer's latest reservation. It panics unless at is after now
// (an instant already being dispatched cannot take an older sequence
// number) and seq is that reservation, taken since the engine's last
// Reset.
func (t *Timer) ArmReserved(at Time, seq uint64) {
	if seq != t.rseq || t.repoch != t.eng.resets || seq == 0 {
		panic(fmt.Sprintf("sim: timer %q armed with seq %d, not its live reservation", t.label, seq))
	}
	t.Disarm()
	t.ev = t.eng.atReserved(at, seq, t.label, t.fire)
}

// Disarm cancels a pending expiry, if any.
func (t *Timer) Disarm() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Deadline reports when the timer will fire; valid only when Pending.
func (t *Timer) Deadline() Time {
	if !t.Pending() {
		return Forever
	}
	return t.ev.Time()
}

// Ticker invokes fn every period, starting one period from Start.
// Unlike two chained Timers, it guarantees no drift: ticks fire at
// start+k*period exactly. Like Timer, it binds its tick callback once.
type Ticker struct {
	eng    *Engine
	label  string
	period Duration
	next   Time
	ev     Event
	fn     func()
	fire   func() // t.tick, bound once
}

// NewTicker returns a stopped ticker.
func NewTicker(eng *Engine, label string, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q with period %v", label, period))
	}
	t := &Ticker{eng: eng, label: label, period: period, fn: fn}
	t.fire = t.tick
	return t
}

// Start begins ticking. The first tick fires one period from now.
func (t *Ticker) Start() {
	t.Stop()
	t.next = t.eng.Now().Add(t.period)
	t.schedule()
}

func (t *Ticker) schedule() {
	t.ev = t.eng.At(t.next, t.label, t.fire)
}

func (t *Ticker) tick() {
	t.next = t.next.Add(t.period)
	t.schedule()
	t.fn()
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.ev.Pending() }

// Period reports the tick interval.
func (t *Ticker) Period() Duration { return t.period }
