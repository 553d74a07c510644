package sim

import (
	"fmt"
	"testing"
)

// Tests for same-timestamp batch dispatch: Step pops the earliest event
// and all of its same-instant siblings in one popRun and fires them from
// the engine's batch buffer. These tests pin the semantics the rest of
// the repo relies on — (at, seq) FIFO order, cancellation of a batched
// sibling, Pending/NextEventTime visibility mid-batch, and Reset with a
// partially dispatched batch.

// TestBatchSameInstantFIFO: a storm of events at one timestamp fires in
// schedule order, interleaved correctly with events a callback schedules
// at that same timestamp mid-batch (higher seq: they fire after the
// original run).
func TestBatchSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	at := Time(100)
	for i := 0; i < 8; i++ {
		i := i
		e.At(at, "storm", func() {
			got = append(got, i)
			if i == 2 {
				// Scheduled mid-batch at the same instant: must fire
				// after the pre-existing run, in schedule order.
				e.At(at, "late", func() { got = append(got, 100) })
				e.At(at, "late", func() { got = append(got, 101) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fire order %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Errorf("now = %v, want %v", e.Now(), at)
	}
}

// TestBatchCancelSibling: an event cancelling a later same-instant
// sibling suppresses it even though the sibling was already popped into
// the dispatch batch, and the cancelled handle goes inert immediately.
func TestBatchCancelSibling(t *testing.T) {
	e := NewEngine(1)
	var got []string
	var victim Event
	e.At(50, "killer", func() {
		got = append(got, "killer")
		if !victim.Pending() {
			t.Error("batched sibling not Pending before cancel")
		}
		e.Cancel(victim)
		if victim.Pending() {
			t.Error("cancelled batched sibling still Pending")
		}
	})
	victim = e.At(50, "victim", func() { got = append(got, "victim") })
	e.At(50, "after", func() { got = append(got, "after") })
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint([]string{"killer", "after"}) {
		t.Errorf("fire order %v, want [killer after]", got)
	}
	if e.EventsFired() != 2 {
		t.Errorf("fired = %d, want 2", e.EventsFired())
	}
}

// TestBatchPendingCounts: Pending and NextEventTime stay correct while
// part of a same-instant run sits in the dispatch batch.
func TestBatchPendingCounts(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.At(10, "tie", func() {})
	}
	e.At(20, "later", func() {})
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	e.Step() // pops the whole run at 10, fires one
	if got := e.Pending(); got != 4 {
		t.Errorf("Pending mid-batch = %d, want 4", got)
	}
	if got := e.NextEventTime(); got != 10 {
		t.Errorf("NextEventTime mid-batch = %v, want 10", got)
	}
	e.Step()
	e.Step()
	e.Step()
	if got := e.NextEventTime(); got != 20 {
		t.Errorf("NextEventTime after run = %v, want 20", got)
	}
}

// TestBatchResetMidRun: Reset with a partially dispatched batch (live
// and cancelled leftovers alike) recycles every node and leaves a clean
// engine — and the recycled nodes are reused, not leaked.
func TestBatchResetMidRun(t *testing.T) {
	e := NewEngine(1)
	var victim Event
	for i := 0; i < 6; i++ {
		h := e.At(10, "tie", func() {})
		if i == 3 {
			victim = h
		}
	}
	e.Step() // move the run into the batch, fire the first
	e.Cancel(victim)
	e.Reset(2)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", got)
	}
	if e.Now() != 0 {
		t.Fatal("clock not rewound")
	}
	// The engine must be fully reusable: another same-instant storm
	// runs to completion.
	fired := 0
	for i := 0; i < 6; i++ {
		e.At(5, "tie", func() { fired++ })
	}
	e.Run()
	if fired != 6 {
		t.Errorf("fired %d/6 after Reset", fired)
	}
}

// TestBatchStopMidRun: Stop inside a batched event halts dispatch; the
// undelivered siblings stay pending and drain on Reset.
func TestBatchStopMidRun(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, "stopper", func() { fired++; e.Stop() })
	e.At(10, "tail", func() { fired++ })
	e.At(10, "tail", func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (Stop mid-batch)", fired)
	}
	if got := e.Pending(); got != 2 {
		t.Errorf("Pending after Stop = %d, want 2", got)
	}
	e.Reset(3)
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after Reset = %d, want 0", got)
	}
}

// TestZeroAllocSameInstantStorm extends the engine's zero-alloc gate to
// batched dispatch: scheduling and firing a same-instant run allocates
// nothing once the pool and the batch buffer are warm.
func TestZeroAllocSameInstantStorm(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		fn := func() {}
		zeroAllocs(t, "same-instant storm/"+name, func() {
			at := e.Now() + 5
			for i := 0; i < 16; i++ {
				e.At(at, "storm", fn)
			}
			e.RunUntil(at)
		})
	})
}
