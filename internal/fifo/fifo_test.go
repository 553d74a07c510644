package fifo

import (
	"math/rand"
	"testing"
)

// contents lists the queue front to back.
func contents[T any](r *Ring[T]) []T {
	out := make([]T, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRingWrapAndGrow: pushes and pops that walk the head around the
// buffer many times, with growth triggered while the queue is wrapped,
// keep strict FIFO order.
func TestRingWrapAndGrow(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		// Net growth of one element per round: the queue wraps
		// repeatedly and grows from 8 through 256 slots mid-wrap.
		for i := 0; i < 3; i++ {
			r.PushBack(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := r.PopFront(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if r.Len() != next-want {
		t.Fatalf("len %d, want %d", r.Len(), next-want)
	}
	for r.Len() > 0 {
		if got := r.PopFront(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
}

// TestRingPushFront: front insertion (the scheduler's requeue-at-head)
// interleaves with back insertion, including across a wrap and a grow.
func TestRingPushFront(t *testing.T) {
	var r Ring[int]
	var ref []int
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			r.PushFront(i)
			ref = append([]int{i}, ref...)
		} else {
			r.PushBack(i)
			ref = append(ref, i)
		}
		if i%5 == 4 {
			if got := r.PopFront(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if got := contents(&r); !equal(got, ref) {
			t.Fatalf("step %d: ring %v, want %v", i, got, ref)
		}
	}
}

// TestRingDeleteFunc: removal keeps the survivors in order on a wrapped
// ring and clears the vacated tail slots.
func TestRingDeleteFunc(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 6; i++ {
		r.PushBack(-1)
	}
	for i := 0; i < 6; i++ {
		r.PopFront() // head now at slot 6: the next pushes wrap
	}
	for i := 0; i < 7; i++ {
		r.PushBack(i)
	}
	if n := r.DeleteFunc(func(x int) bool { return x%2 == 1 }); n != 3 {
		t.Fatalf("removed %d, want 3", n)
	}
	if got := contents(&r); !equal(got, []int{0, 2, 4, 6}) {
		t.Fatalf("after delete: %v", got)
	}
	if n := r.DeleteFunc(func(int) bool { return false }); n != 0 {
		t.Fatalf("no-op delete removed %d", n)
	}
	r.PushBack(8)
	if got := contents(&r); !equal(got, []int{0, 2, 4, 6, 8}) {
		t.Fatalf("push after delete: %v", got)
	}
}

// TestRingClearsPoppedSlots: every slot the ring vacates — by pop,
// delete or clear — is zeroed, so a pointer-typed queue never keeps a
// dequeued value reachable.
func TestRingClearsPoppedSlots(t *testing.T) {
	var r Ring[*int]
	vals := make([]int, 12)
	for i := range vals {
		r.PushBack(&vals[i])
	}
	live := func() int {
		n := 0
		for _, p := range r.buf {
			if p != nil {
				n++
			}
		}
		return n
	}
	r.PopFront()
	r.PopFront()
	if live() != r.Len() {
		t.Fatalf("after pops: %d non-nil slots for %d elements", live(), r.Len())
	}
	r.DeleteFunc(func(p *int) bool { return p == &vals[5] || p == &vals[9] })
	if live() != r.Len() {
		t.Fatalf("after delete: %d non-nil slots for %d elements", live(), r.Len())
	}
	r.PushFront(&vals[0])
	r.Clear()
	if r.Len() != 0 || live() != 0 {
		t.Fatalf("after clear: len %d, %d non-nil slots", r.Len(), live())
	}
}

// TestRingAgainstSlice drives random operations against a slice
// reference.
func TestRingAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Ring[int]
	var ref []int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			r.PushBack(step)
			ref = append(ref, step)
		case op < 5:
			r.PushFront(step)
			ref = append([]int{step}, ref...)
		case op < 9:
			if len(ref) == 0 {
				continue
			}
			if got := r.PopFront(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		default:
			m := rng.Intn(7) + 2
			r.DeleteFunc(func(x int) bool { return x%m == 0 })
			kept := ref[:0:0]
			for _, x := range ref {
				if x%m != 0 {
					kept = append(kept, x)
				}
			}
			ref = kept
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, r.Len(), len(ref))
		}
	}
	if got := contents(&r); !equal(got, ref) {
		t.Fatalf("final ring %v, want %v", got, ref)
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopFront on an empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.PopFront()
}

// TestRingZeroAlloc: once grown, a ring cycles without allocating.
func TestRingZeroAlloc(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 16; i++ {
		r.PushBack(i)
	}
	avg := testing.AllocsPerRun(100, func() {
		r.PushBack(r.PopFront())
		r.PushFront(r.PopFront())
	})
	if avg != 0 {
		t.Fatalf("%.1f allocs per cycle, want 0", avg)
	}
}
