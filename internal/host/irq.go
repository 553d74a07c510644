package host

import (
	"fmt"

	"coregap/internal/hw"
	"coregap/internal/sim"
)

// RegisterIRQ installs a kernel-level handler for an interrupt. The
// handler runs in IRQ context on the receiving core (stealing CPU from
// whatever thread is running there), like a Linux hardirq handler.
func (k *Kernel) RegisterIRQ(irq hw.IRQ, fn func(core hw.CoreID)) {
	k.irqHandlers[irq] = fn
}

// handleIRQ is the host's interrupt entry on this core, bound once as
// the core's hw.IRQHandler.
func (cs *coreSched) handleIRQ(from hw.CoreID, irq hw.IRQ) { cs.k.handleIRQ(cs.id, from, irq) }

// handleIRQ is the per-core interrupt entry point.
func (k *Kernel) handleIRQ(core hw.CoreID, from hw.CoreID, irq hw.IRQ) {
	cs := k.sched(core)
	if cs == nil || cs.offline {
		// Interrupt raced with hotplug: hardware re-routes in practice;
		// we deliver to the lowest online core.
		for _, c := range k.mach.Cores() {
			if s := k.sched(c.ID()); s != nil && !s.offline {
				k.handleIRQ(c.ID(), from, irq)
				return
			}
		}
		return
	}
	if k.met != nil {
		if k.irqs == nil {
			k.irqs = k.met.Counter("host.irqs")
		}
		k.irqs.Inc()
	}
	fn := k.irqHandlers[irq]
	if fn == nil {
		return
	}
	k.steal(cs, k.irqCost, nil, fn)
}

// StealCPU runs fn after cost of IRQ-context work on the given core,
// preempting (and then resuming) the current thread. This models hardirq
// processing: it charges the time to the core but not to any thread.
func (k *Kernel) StealCPU(core hw.CoreID, cost sim.Duration, fn func()) {
	cs := k.sched(core)
	if cs == nil {
		panic(fmt.Sprintf("host: StealCPU on unmanaged core %d", core))
	}
	k.steal(cs, cost, fn, nil)
}

// irqWork is one piece of IRQ-context work in flight on a core: the
// handler to run once the stolen time has elapsed (fn, or irqFn called
// with the core) and whether completing it ends the core's steal. The
// records are free-listed on the kernel with their callback bound once,
// so interrupt handling allocates nothing in steady state.
type irqWork struct {
	cs     *coreSched
	fn     func()
	irqFn  func(hw.CoreID)
	resume bool
	run    func() // w.fire, bound once
}

func (w *irqWork) fire() {
	cs, fn, irqFn, resume := w.cs, w.fn, w.irqFn, w.resume
	*w = irqWork{run: w.run}
	cs.k.steals = append(cs.k.steals, w)
	if fn != nil {
		fn()
	}
	if irqFn != nil {
		irqFn(cs.id)
	}
	if resume {
		cs.endSteal()
	}
}

// steal is StealCPU for either handler shape.
func (k *Kernel) steal(cs *coreSched, cost sim.Duration, fn func(), irqFn func(hw.CoreID)) {
	exec := k.mach.Core(cs.id).Exec
	k.eng.Count(cIRQSteals)
	k.eng.Trace().Span(sim.TCIRQ, "host.irq_steal", int32(cs.id), cost, 0)

	var w *irqWork
	if n := len(k.steals); n > 0 {
		w = k.steals[n-1]
		k.steals = k.steals[:n-1]
	} else {
		w = &irqWork{}
		w.run = w.fire
	}
	w.cs, w.fn, w.irqFn = cs, fn, irqFn

	if cs.stealing {
		// Nested IRQ: serialize after the current steal by deferring a
		// tiny amount; the handler chain remains deterministic.
		k.eng.After(cost, "irq:nested", w.run)
		return
	}

	if t := cs.cur; t != nil {
		t.rem = exec.Preempt()
		t.cpuTime += k.eng.Now().Sub(t.sliceStart)
		cs.stolen = t
	}
	cs.stealing = true
	w.resume = true
	k.eng.After(cost, "irq", w.run)
}

// endSteal returns the core from IRQ context to its scheduler.
func (cs *coreSched) endSteal() {
	k, t := cs.k, cs.stolen
	cs.stealing = false
	cs.stolen = nil
	// Resume the interrupted thread directly: it never left cs.cur, so
	// just restart its executor slice.
	if t != nil && cs.cur == t && t.state == Running && t.hasCur {
		k.startCurrent(cs)
		cs.restartQuantum(t.rem)
		return
	}
	if t != nil {
		cs.cur = nil
	}
	k.dispatch(cs)
}
