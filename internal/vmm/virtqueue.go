package vmm

import (
	"coregap/internal/fifo"
	"coregap/internal/guest"
)

// Virtqueue models a virtio ring: a bounded descriptor table shared
// between guest driver and device. The guest posts buffers into the
// available ring; the device consumes them, works, and returns them via
// the used ring. A full ring exerts backpressure on the driver — under
// core gapping that matters because every doorbell retry is another
// cross-core exit.
type Virtqueue struct {
	size int

	avail    fifo.Ring[queuedReq] // posted by the driver, not yet started
	inFlight int                  // taken by the device, not yet completed

	// stats
	posted   uint64
	fullDrop uint64
	maxDepth int
}

type queuedReq struct {
	vcpu int
	req  guest.IORequest
}

// DefaultQueueSize matches common virtio-blk/net configurations.
const DefaultQueueSize = 256

// NewVirtqueue builds a ring with the given descriptor count.
func NewVirtqueue(size int) *Virtqueue {
	if size <= 0 {
		size = DefaultQueueSize
	}
	return &Virtqueue{size: size}
}

// Size reports the descriptor count.
func (q *Virtqueue) Size() int { return q.size }

// Depth reports descriptors currently in use (posted + in flight).
func (q *Virtqueue) Depth() int { return q.avail.Len() + q.inFlight }

// Free reports available descriptors.
func (q *Virtqueue) Free() int { return q.size - q.Depth() }

// Push posts a request into the available ring. It reports false when
// the ring is full (the driver must wait for used buffers).
func (q *Virtqueue) Push(vcpu int, req guest.IORequest) bool {
	if q.Depth() >= q.size {
		q.fullDrop++
		return false
	}
	q.avail.PushBack(queuedReq{vcpu: vcpu, req: req})
	q.posted++
	if d := q.Depth(); d > q.maxDepth {
		q.maxDepth = d
	}
	return true
}

// Pop takes the next available request for device processing.
func (q *Virtqueue) Pop() (vcpu int, req guest.IORequest, ok bool) {
	if q.avail.Len() == 0 {
		return 0, guest.IORequest{}, false
	}
	head := q.avail.PopFront()
	q.inFlight++
	return head.vcpu, head.req, true
}

// Complete returns one in-flight descriptor to the used ring, freeing it.
func (q *Virtqueue) Complete() {
	if q.inFlight > 0 {
		q.inFlight--
	}
}

// Posted reports the total requests ever accepted.
func (q *Virtqueue) Posted() uint64 { return q.posted }

// FullDrops reports how often the driver hit a full ring.
func (q *Virtqueue) FullDrops() uint64 { return q.fullDrop }

// MaxDepth reports the high-water mark.
func (q *Virtqueue) MaxDepth() int { return q.maxDepth }
