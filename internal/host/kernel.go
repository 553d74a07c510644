package host

import (
	"errors"
	"fmt"

	"coregap/internal/fifo"
	"coregap/internal/gic"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/trace"
	"coregap/internal/uarch"
)

// DefaultQuantum is the normal-class timeslice.
const DefaultQuantum = 4 * sim.Millisecond

// Host-kernel counters: scheduler and IRQ activity per trial.
var (
	cSubmits    = sim.DefineCounter("host.submits")
	cCtxSwitch  = sim.DefineCounter("host.ctx_switches")
	cIRQSteals  = sim.DefineCounter("host.irq_steals")
	cHotplugOff = sim.DefineCounter("host.hotplug_offlines")
	cHotplugOn  = sim.DefineCounter("host.hotplug_onlines")
)

// Kernel is the host OS: per-core run queues, two scheduling classes,
// IRQ dispatch, and CPU hotplug.
type Kernel struct {
	eng  *sim.Engine
	mach *hw.Machine
	dist *gic.Distributor
	met  *trace.Set

	// cores is indexed by core ID; every machine core is adopted at boot.
	cores   []*coreSched
	quantum sim.Duration

	irqHandlers map[hw.IRQ]func(core hw.CoreID)
	irqCost     sim.Duration
	// irqs is the host.irqs metric, resolved on the first interrupt so
	// a kernel that never takes one leaves the metric set untouched.
	irqs *trace.Counter
	// steals is the free list of IRQ-context work records (irq.go).
	steals []*irqWork

	// hostFootprint is how much per-core microarchitectural state a
	// scheduled host thread touches — the interference that cools guest
	// working sets on shared cores (§2.3).
	hostFootprint float64
}

type coreSched struct {
	k     *Kernel
	id    hw.CoreID
	cur   *Thread
	fifoQ fifo.Ring[*Thread]
	normQ fifo.Ring[*Thread]
	// quantum expires the running normal-class slice at deadline (0 when
	// no slice has one). It is queued only when it can fire: at dispatch
	// when the work outlasts the quantum, or once a steal pushes the
	// completion to or past the deadline. qseq is the engine sequence
	// number reserved for it at dispatch, so a late arm fires in the
	// same-instant order an arm at dispatch would have.
	quantum  *sim.Timer
	deadline sim.Time
	qseq     uint64
	// stealing marks an in-progress IRQ steal: the executor belongs to
	// the IRQ path until it completes. stolen is the thread the steal
	// interrupted (nil when the core was idle).
	stealing bool
	stolen   *Thread
	offline  bool

	// Callbacks bound once per core: slice completion and the host's
	// interrupt entry.
	sliceDone func()
	irqEntry  hw.IRQHandler
}

// NewKernel boots the host kernel on all of the machine's cores.
func NewKernel(mach *hw.Machine, dist *gic.Distributor, met *trace.Set) *Kernel {
	k := &Kernel{
		eng:           mach.Engine(),
		mach:          mach,
		dist:          dist,
		met:           met,
		cores:         make([]*coreSched, mach.NumCores()),
		quantum:       DefaultQuantum,
		irqHandlers:   make(map[hw.IRQ]func(hw.CoreID)),
		irqCost:       600 * sim.Nanosecond,
		hostFootprint: 0.25,
	}
	for _, c := range mach.Cores() {
		k.adoptCore(c.ID())
	}
	return k
}

func (k *Kernel) adoptCore(id hw.CoreID) {
	cs := &coreSched{k: k, id: id}
	cs.sliceDone = cs.completeSlice
	cs.irqEntry = cs.handleIRQ
	cs.quantum = sim.NewTimer(k.eng, "quantum", cs.quantumExpired)
	k.cores[id] = cs
	k.mach.Core(id).SetIRQHandler(cs.irqEntry)
}

// sched returns the scheduler state of a managed core (nil otherwise).
func (k *Kernel) sched(id hw.CoreID) *coreSched {
	if id < 0 || int(id) >= len(k.cores) {
		return nil
	}
	return k.cores[id]
}

// Engine reports the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Machine reports the underlying machine.
func (k *Kernel) Machine() *hw.Machine { return k.mach }

// Distributor reports the interrupt distributor.
func (k *Kernel) Distributor() *gic.Distributor { return k.dist }

// Metrics reports the kernel's metric set.
func (k *Kernel) Metrics() *trace.Set { return k.met }

// SetQuantum overrides the normal-class timeslice. A quantum must be
// positive.
func (k *Kernel) SetQuantum(q sim.Duration) {
	if q <= 0 {
		panic(fmt.Sprintf("host: non-positive quantum %v", q))
	}
	k.quantum = q
}

// NewThread creates a blocked thread. pin may be hw.NoCore.
func (k *Kernel) NewThread(name string, class Class, pin hw.CoreID) *Thread {
	return &Thread{k: k, name: name, class: class, state: Blocked, pin: pin, core: hw.NoCore}
}

// SetIdlePoll turns t into a busy-wait server: instead of blocking when
// out of work, it repeatedly runs poll slices. This models the
// Quarantine-style yield-polling configuration of Fig. 6 (§4.3).
func (k *Kernel) SetIdlePoll(t *Thread, poll func() (sim.Duration, func())) {
	t.idlePoll = poll
}

// Submit queues a work item on t, waking it if blocked. The label names
// the kind of work and labels the executor slice that runs it, so it
// must be a static string; the thread is the identity. Hot callers pass
// a callback bound once, not a fresh closure per item.
func (k *Kernel) Submit(t *Thread, label string, work sim.Duration, fn func()) {
	if t.state == Dead {
		return
	}
	k.eng.Count(cSubmits)
	t.inbox.PushBack(workItem{label: label, work: work, fn: fn})
	if t.state == Blocked {
		k.wake(t)
	}
}

// Kill terminates a thread, dropping queued work.
func (k *Kernel) Kill(t *Thread) {
	switch t.state {
	case Running:
		cs := k.cores[t.core]
		k.mach.Core(t.core).Exec.Preempt()
		if !cs.stealing {
			// Charge the partial slice. During an IRQ steal the slice
			// was already charged when the steal preempted it.
			t.cpuTime += k.eng.Now().Sub(t.sliceStart)
		}
		cs.stopQuantum()
		cs.cur = nil
		t.state = Dead
		k.dispatch(cs)
	case Runnable:
		cs := k.cores[t.core]
		removeThread(&cs.fifoQ, t)
		removeThread(&cs.normQ, t)
		t.state = Dead
	default:
		t.state = Dead
	}
	t.inbox.Clear()
	t.cur = workItem{}
	t.hasCur = false
}

func removeThread(q *fifo.Ring[*Thread], t *Thread) {
	q.DeleteFunc(func(x *Thread) bool { return x == t })
}

// pickCore selects a core for a waking unpinned thread: fewest queued
// threads, ties to the lowest ID — a deterministic stand-in for the load
// balancer.
func (k *Kernel) pickCore(t *Thread) (hw.CoreID, error) {
	if t.pin != hw.NoCore {
		if cs := k.sched(t.pin); cs != nil && !cs.offline {
			return t.pin, nil
		}
		// Affinity broken by hotplug: fall through to any core, as
		// Linux does when the pinned core goes away.
	}
	best := hw.NoCore
	bestLoad := 0
	for _, c := range k.mach.Cores() {
		cs := k.sched(c.ID())
		if cs == nil || cs.offline {
			continue
		}
		load := cs.fifoQ.Len() + cs.normQ.Len()
		if cs.cur != nil {
			load++
		}
		if best == hw.NoCore || load < bestLoad {
			best = c.ID()
			bestLoad = load
		}
	}
	if best == hw.NoCore {
		return hw.NoCore, errors.New("host: no online cores")
	}
	return best, nil
}

func (k *Kernel) wake(t *Thread) {
	core, err := k.pickCore(t)
	if err != nil {
		panic("host: waking thread with no online cores")
	}
	t.state = Runnable
	t.core = core
	cs := k.cores[core]
	if t.class == ClassFIFO {
		cs.fifoQ.PushBack(t)
		// FIFO wake preempts a running normal thread.
		if cs.cur != nil && cs.cur.class == ClassNormal && !cs.stealing {
			k.preemptCurrent(cs, true)
		}
	} else {
		cs.normQ.PushBack(t)
	}
	k.dispatch(cs)
}

// preemptCurrent stops the running thread; front requeues it at the head
// of its queue (involuntary preemption) rather than the tail.
func (k *Kernel) preemptCurrent(cs *coreSched, front bool) {
	t := cs.cur
	if t == nil {
		return
	}
	t.rem = k.mach.Core(cs.id).Exec.Preempt()
	t.cpuTime += k.eng.Now().Sub(t.sliceStart)
	cs.stopQuantum()
	cs.cur = nil
	t.state = Runnable
	q := &cs.normQ
	if t.class == ClassFIFO {
		q = &cs.fifoQ
	}
	if front {
		q.PushFront(t)
	} else {
		q.PushBack(t)
	}
}

// startQuantum gives the slice just started on cs a quantum deadline
// and reserves the quantum's place among same-instant events. Host
// slices run at speed 1.0, so the slice completes rem from now: a
// completion at the deadline itself was scheduled first and wins, so
// only rem > quantum can be preempted.
func (cs *coreSched) startQuantum(rem sim.Duration) {
	k := cs.k
	cs.deadline = k.eng.Now().Add(k.quantum)
	cs.qseq = cs.quantum.Reserve()
	if rem > k.quantum {
		cs.quantum.ArmReserved(cs.deadline, cs.qseq)
	}
}

// restartQuantum arms the quantum late after an IRQ steal restarted the
// slice with rem left, if the completion now lands at or past a
// deadline still ahead. At the deadline itself the restarted completion
// is newer than the reserved quantum, so the quantum wins the tie. A
// deadline that passed during the steal stays a no-op.
func (cs *coreSched) restartQuantum(rem sim.Duration) {
	now := cs.k.eng.Now()
	if cs.deadline > now && !cs.quantum.Pending() && now.Add(rem) >= cs.deadline {
		cs.quantum.ArmReserved(cs.deadline, cs.qseq)
	}
}

// stopQuantum ends the current slice's quantum.
func (cs *coreSched) stopQuantum() {
	cs.quantum.Disarm()
	cs.deadline = 0
}

func (cs *coreSched) quantumExpired() {
	if cs.cur == nil || cs.stealing {
		return
	}
	// Round-robin: requeue at the tail.
	cs.k.preemptCurrent(cs, false)
	cs.k.dispatch(cs)
}

// dispatch runs the next thread on an idle core.
func (k *Kernel) dispatch(cs *coreSched) {
	if cs.cur != nil || cs.offline || cs.stealing {
		return
	}
	var t *Thread
	if cs.fifoQ.Len() > 0 {
		t = cs.fifoQ.PopFront()
	} else if cs.normQ.Len() > 0 {
		t = cs.normQ.PopFront()
	} else {
		return
	}
	if !t.takeNext() {
		// Nothing to do: block and try the next candidate.
		t.state = Blocked
		k.dispatch(cs)
		return
	}
	cs.cur = t
	t.state = Running
	t.core = cs.id
	t.switches++
	k.eng.Count(cCtxSwitch)

	dom, fp := t.domain, t.footprint
	if dom == uarch.DomainNone {
		dom, fp = uarch.DomainHost, k.hostFootprint
	}
	k.mach.Core(cs.id).RecordExecution(dom, fp, 0)
	k.startCurrent(cs)
	// Reserve the quantum after starting the slice so that a slice
	// completing exactly at quantum expiry counts as a completion, not a
	// preemption.
	if t.class == ClassNormal {
		cs.startQuantum(t.rem)
	}
}

// startCurrent starts (or restarts after an IRQ steal) the executor slice
// for cs.cur's current work item.
func (k *Kernel) startCurrent(cs *coreSched) {
	t := cs.cur
	t.sliceStart = k.eng.Now()
	k.mach.Core(cs.id).Exec.Start(t.cur.label, t.rem, 1.0, cs.sliceDone)
}

// completeSlice is the executor completion of cs.cur's work item. The
// executor runs only cs.cur's slice: every path that changes cs.cur
// preempts it first, which drops this callback.
func (cs *coreSched) completeSlice() {
	k, t := cs.k, cs.cur
	t.cpuTime += k.eng.Now().Sub(t.sliceStart)
	cs.stopQuantum()
	fn := t.cur.fn
	t.cur = workItem{}
	t.hasCur = false
	t.rem = 0
	cs.cur = nil
	// Completion callback may submit more work, wake threads, etc.
	if fn != nil {
		fn()
	}
	if t.state == Running {
		// Still ours: run its next item or block. A completed FIFO
		// thread with more work continues at the queue head (it was
		// never preempted).
		if t.hasWork() || t.idlePoll != nil {
			t.state = Runnable
			if t.class == ClassFIFO {
				cs.fifoQ.PushFront(t)
			} else {
				cs.normQ.PushBack(t)
			}
		} else {
			t.state = Blocked
		}
	}
	k.dispatch(cs)
}

// CoreQueueLen reports runnable threads queued on a core.
func (k *Kernel) CoreQueueLen(id hw.CoreID) int {
	cs := k.sched(id)
	if cs == nil {
		return 0
	}
	n := cs.fifoQ.Len() + cs.normQ.Len()
	if cs.cur != nil {
		n++
	}
	return n
}

// Running reports the thread currently on a core (nil when idle).
func (k *Kernel) Running(id hw.CoreID) *Thread {
	if cs := k.sched(id); cs != nil {
		return cs.cur
	}
	return nil
}
