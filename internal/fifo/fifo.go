// Package fifo provides Ring, a growable FIFO queue on a circular buffer.
//
// It replaces the `q = q[1:]` / `append([]T{x}, q...)` slice idiom on the
// simulator's hot paths (host run queues, thread inboxes, guest request
// backlogs). Reslicing from the front strands capacity, so every append
// past the stranded prefix reallocates; prepending copies the whole queue.
// A ring reuses one backing array in steady state, pushes at either end
// in O(1), and zeroes every slot it vacates so it never retains pointers
// to values the queue no longer holds.
package fifo

// Ring is a FIFO queue with O(1) push at both ends and pop at the front.
// The zero value is an empty, ready-to-use queue.
type Ring[T any] struct {
	buf  []T // len(buf) is the capacity: zero or a power of two
	head int // index of the front element
	n    int // number of queued elements
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// slot maps a logical position (0 = front) to a buffer index.
func (r *Ring[T]) slot(i int) int { return (r.head + i) & (len(r.buf) - 1) }

// grow doubles the buffer (minimum 8 slots), unrolling the queue to the
// start of the new array.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[r.slot(i)]
	}
	r.buf = buf
	r.head = 0
}

// PushBack appends x at the back of the queue.
func (r *Ring[T]) PushBack(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.slot(r.n)] = x
	r.n++
}

// PushFront inserts x at the front of the queue.
func (r *Ring[T]) PushFront(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = x
	r.n++
}

// PopFront removes and returns the front element. It panics on an empty
// queue.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("fifo: PopFront on empty ring")
	}
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// At returns the i-th element from the front (0 = front). It panics when
// i is out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("fifo: At index out of range")
	}
	return r.buf[r.slot(i)]
}

// DeleteFunc removes every element for which del returns true, keeping
// the survivors in order, and reports how many were removed.
func (r *Ring[T]) DeleteFunc(del func(T) bool) int {
	kept := 0
	for i := 0; i < r.n; i++ {
		x := r.buf[r.slot(i)]
		if del(x) {
			continue
		}
		r.buf[r.slot(kept)] = x
		kept++
	}
	var zero T
	for i := kept; i < r.n; i++ {
		r.buf[r.slot(i)] = zero
	}
	removed := r.n - kept
	r.n = kept
	return removed
}

// Clear empties the queue, zeroing every occupied slot but keeping the
// backing array for reuse.
func (r *Ring[T]) Clear() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[r.slot(i)] = zero
	}
	r.head = 0
	r.n = 0
}
