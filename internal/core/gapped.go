package core

import (
	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/rpc"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// This file is the core-gapped execution path (§4.2-§4.4): the guest runs
// directly on its dedicated core under monitor control; every exit is a
// cross-core RPC to the host core; interrupt delegation handles timer and
// IPI traffic locally.

// installRMMCoreHandler takes over the dedicated core's interrupt
// delivery for the monitor: after the hotplug handoff, the host never
// handles another interrupt on this core. The only interrupt the monitor
// expects is the host's doorbell requesting a guest exit (Fig. 5).
func (v *VCPU) installRMMCoreHandler() {
	core := v.node().Mach.Core(v.dcore)
	core.SetIRQHandler(func(from hw.CoreID, irq hw.IRQ) {
		if irq == hw.IPIHostToRMM {
			v.onHostKick()
		}
	})
	core.SwitchWorld(hw.RealmWorld)
}

// postRunCall is the host-side REC-enter: post the run request into
// shared memory; the monitor's poll loop on the (idle) dedicated core
// picks it up after the propagation delay and enters the guest.
func (v *VCPU) postRunCall() {
	if v.halted || v.stopped {
		return
	}
	p := v.params()
	// A requested core migration commits between run calls (§3's coarse
	// rebinding): the monitor validates, wipes the old core, and the
	// next entry lands on the new one.
	v.applyPendingRebind()
	// Interrupts the host wants delivered ride along in the run call's
	// virtual interrupt list (Fig. 5 step 1); any kick that raced with a
	// self-initiated exit is folded in here.
	if len(v.kickQueue) > 0 {
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	}
	v.mb.Post("run", p.Transport.Prop)
	v.eng().After(p.Transport.PickupLatency(), "pickup", v.pickupFn)
}

// pickup is the monitor's poll loop noticing the posted run call.
func (v *VCPU) pickup() {
	if v.stopped {
		return
	}
	if _, ok := v.mb.TryTake(); ok {
		v.enterGuest()
	}
}

// enterGuest is the monitor-side REC entry on the dedicated core.
func (v *VCPU) enterGuest() {
	n := v.node()
	p := v.params()
	if err := n.Mon.CheckEnter(v.rec, v.dcore); err != nil {
		// Orchestration never violates the binding; a failure here is a
		// modelling bug and must be loud.
		panic("core: CheckEnter failed: " + err.Error())
	}
	n.Mon.NoteEnter(v.rec)
	n.Eng.Count(cRECEnter)
	n.Eng.Trace().Emit(sim.TCExit, "core.rec_enter", int32(v.dcore), int64(v.idx))
	if v.haveExitStamp {
		now := n.Eng.Now()
		v.vm.latency(&v.vm.met.runtorun, ".runtorun").Record(now, now.Sub(v.exitCompletedAt))
		v.haveExitStamp = false
	}
	// Context restore on the dedicated core, then guest execution.
	v.eng().After(p.CtxSaveWipe, "ctx-restore", v.ctxRestoreFn)
}

// ctxRestore completes REC entry: restore the guest context, deliver
// the interrupts the host passed in the run call, and resume the guest
// once their handlers have run.
func (v *VCPU) ctxRestore() {
	if v.stopped {
		return
	}
	n := v.node()
	p := v.params()
	v.inGuest = true
	v.epoch++
	v.startTimers()
	n.Mach.Core(v.dcore).RecordExecution(v.vm.domain, v.footprint(), 0.02)

	// Deliver interrupts the host passed in the run call. The slice is
	// handed back empty so its array is reused by the next run call.
	var handlerCost sim.Duration
	for _, ev := range v.pendingInj {
		v.deliverEvent(ev)
		handlerCost += p.GuestIRQHandle
	}
	v.pendingInj = v.pendingInj[:0]
	if handlerCost > 0 {
		v.after(handlerCost, "irq-handlers", contEntry, 0)
	} else {
		v.entryProceed(v.epoch)
	}
}

// entryProceed resumes the guest after the entry's interrupt handlers,
// unless an exit (tagged by epoch) intervened while they ran.
func (v *VCPU) entryProceed(epoch uint64) {
	if v.stopped || !v.inGuest || v.epoch != epoch {
		// An exit intervened while the handler cost elapsed;
		// the re-entry path owns the continuation now.
		return
	}
	if v.tickEOIPending {
		// Second exit of a non-delegated timer tick.
		v.tickEOIPending = false
		v.exitToHost(exitInfo{reason: ExitTimer})
		return
	}
	v.resumeGuest() // WFI guests simply keep sitting on their core
}

// advance interprets the program's next action on the dedicated core.
func (v *VCPU) advance() {
	if v.stopped || !v.inGuest {
		return
	}
	if v.waitIO || v.idle {
		return
	}
	if v.node().Mach.Core(v.dcore).Exec.Busy() {
		// The guest is already executing: a racing continuation (e.g. a
		// delegated tick overlapping an entry's handler window) has
		// nothing left to do.
		return
	}
	if !v.hasCur {
		v.cur = v.vm.prog.Next(v.idx)
		v.hasCur = true
	}
	switch v.cur.Kind {
	case guest.ActCompute:
		v.remWork = sim.Duration(float64(v.cur.Work) * v.encFactor())
		v.hasCur = false // consumed; remWork tracks the remainder
		v.startGuestCompute()

	case guest.ActIO:
		req := v.cur.Req
		v.hasCur = false
		if req.Dev == guest.SRIOVNet {
			// Pass-through doorbell: a device register write, no trap.
			v.remWork = 200
			v.doorbell = req
			v.afterCompute = v.vfDoorbellFn
			v.startGuestCompute()
			return
		}
		// virtio doorbell traps to the host.
		if req.Sync {
			v.waitIO = true
		}
		v.exitToHost(exitInfo{reason: ExitMMIO, req: req})

	case guest.ActVIPI:
		target := v.cur.Target
		v.hasCur = false
		if target >= 0 && target < len(v.vm.vipiSentAt) {
			v.vm.vipiSentAt[target] = v.eng().Now()
		}
		if v.node().Opts.DelegateVIPI {
			v.delegatedVIPI(target)
		} else {
			v.exitToHost(exitInfo{reason: ExitVIPI, target: target})
		}

	case guest.ActWFI:
		v.hasCur = false
		v.idle = true
		// The core stays in the guest at a WFI: no host interaction at
		// all, one of the structural wins of dedicated cores.

	case guest.ActHalt:
		v.hasCur = false
		v.halted = true
		v.stopTimers()
		v.exitToHost(exitInfo{reason: ExitHalt})
	}
}

// vfDoorbell is the continuation of the SR-IOV doorbell write: the
// request goes to the VF and the guest continues (or waits for a
// synchronous completion).
func (v *VCPU) vfDoorbell() {
	req := v.doorbell
	v.vm.VMM.VF.Submit(v.idx, req)
	if req.Sync {
		v.waitIO = true
	} else {
		v.advance()
	}
}

// afterCompute optionally overrides the continuation of the current
// compute slice (used for doorbell costs and handler sequences).
// It is consumed on completion.

// startGuestCompute runs v.remWork on the dedicated core.
func (v *VCPU) startGuestCompute() {
	core := v.node().Mach.Core(v.dcore)
	if core.Exec.Busy() {
		// A concurrent continuation (entry path, delegated interrupt
		// handler) already resumed the guest; the first wins.
		return
	}
	core.Exec.Start("guest", v.remWork, 1.0, v.guestDoneFn)
}

// guestDone is the completion of a guest compute slice.
func (v *VCPU) guestDone() {
	v.remWork = 0
	cont := v.afterCompute
	v.afterCompute = nil
	if v.stopped {
		return
	}
	if cont != nil {
		cont()
	} else {
		v.advance()
	}
}

// pauseGuestCompute preempts the guest, remembering remaining work.
func (v *VCPU) pauseGuestCompute() {
	core := v.node().Mach.Core(v.dcore)
	if core.Exec.Busy() {
		v.remWork = core.Exec.Preempt()
	}
}

// resumeGuest continues after a monitor-local interruption. It is safe
// against racing continuations: if the guest is already running it does
// nothing, and a compute slice preempted exactly at its completion
// boundary still runs its pending continuation.
func (v *VCPU) resumeGuest() {
	if v.stopped || !v.inGuest || v.idle || v.waitIO {
		return
	}
	if v.node().Mach.Core(v.dcore).Exec.Busy() {
		return
	}
	if v.remWork > 0 {
		v.startGuestCompute()
		return
	}
	if cont := v.afterCompute; cont != nil {
		v.afterCompute = nil
		cont()
		return
	}
	v.advance()
}

// exitToHost stops guest execution and performs the monitor's exit path:
// save and wipe context, write the exit record to shared memory, and
// notify the host core by IPI (unless the busy-wait ablation is polling).
func (v *VCPU) exitToHost(info exitInfo) {
	n := v.node()
	p := v.params()
	v.pauseGuestCompute()
	v.inGuest = false
	v.epoch++
	v.countExit(info.reason)
	n.Mon.NoteExit(v.rec)
	v.exit = info
	v.eng().After(p.CtxSaveWipe, "ctx-save", v.ctxSaveFn)
}

// ctxSave ends the monitor's exit path: the exit record goes to shared
// memory and the host core is notified.
func (v *VCPU) ctxSave() {
	if v.stopped {
		return
	}
	n := v.node()
	// The mailbox carries only the completion; the record itself stays
	// in v.exit, which no later exit can overwrite before the host has
	// finished this one.
	v.mb.Complete(nil, v.params().Transport.Prop)
	v.exitCompletedAt = n.Eng.Now()
	v.haveExitStamp = true
	if !n.Opts.BusyWaitRPC {
		n.Mach.SendIPI(v.dcore, v.vm.assign.hostCore, hw.IPIGuestExit)
	}
}

// hostPollOnce checks this vCPU's channel for a completed exit and, if
// one is present, dispatches handling onto the vCPU thread. Called from
// the wake-up thread (IPI mode) or from the vCPU thread's own poll loop
// (busy-wait mode).
func (v *VCPU) hostPollOnce() {
	if _, ok := v.mb.TryResponse(); !ok {
		return
	}
	r := v.exit.reason
	v.node().Kern.Submit(v.thread, exitLabels[r], v.hostExitWork(v.exit), v.finishExitFn)
}

// busyPoll is the busy-wait ablation's idle-poll body: one poll slice,
// then a check of the mailbox.
func (v *VCPU) busyPoll() (sim.Duration, func()) {
	return v.params().BusyPollSlice, v.hostPollFn
}

// hostExitWork is the host-side CPU cost of handling one exit. Every
// path starts with the vCPU-thread wake (the run call returning) and the
// kernel exit decode.
func (v *VCPU) hostExitWork(info exitInfo) sim.Duration {
	p := v.params()
	base := p.SchedWake + p.KVMExitKernel
	switch info.reason {
	case ExitTimer, ExitVIPI, ExitMgmtIRQ:
		// Interrupt-management exits bounce through GIC emulation for
		// realm VMs (no in-kernel vGIC fast path).
		return base + p.GapGICEmul
	case ExitKick:
		return base + p.InjectKick
	case ExitMMIO:
		// Device doorbells bounce through the userspace VMM (no
		// ioeventfd in the CCA host stack) — a large part of why
		// emulated I/O is core gapping's worst case (§5.3).
		return base + p.UserMMIO
	case ExitMisc:
		return base + p.UserMMIO // userspace emulation round trip
	default: // ExitHalt
		return base
	}
}

// finishExit completes host-side handling of v.exit and re-enters the
// guest.
func (v *VCPU) finishExit() {
	if v.stopped {
		return
	}
	info := v.exit
	switch info.reason {
	case ExitMMIO:
		v.vm.VMM.Submit(v.idx, info.req)
	case ExitVIPI:
		// Non-delegated guest IPI: the host must force the target vCPU
		// out and pass the interrupt on its next run call.
		if info.target >= 0 && info.target < len(v.vm.vcpus) {
			v.vm.vcpus[info.target].hostRequestInjection(guest.Event{
				Kind: guest.EvVIPI, From: v.idx,
			})
		}
	case ExitKick:
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	case ExitHalt:
		return // never re-entered
	}
	if v.vm.suspended {
		// Host-initiated suspend: park instead of re-entering. The
		// monitor keeps the core dedicated and the context sealed.
		v.parked = true
		return
	}
	v.postRunCall()
}

// hostRequestInjection queues an event for a guest and kicks its vCPU out
// so the interrupt can be passed on the next run call (Fig. 5: "the KVM
// host can still request exits ... by sending an IPI").
func (v *VCPU) hostRequestInjection(ev guest.Event) {
	if v.halted || v.stopped {
		return
	}
	n := v.node()
	v.kickQueue = append(v.kickQueue, ev)
	work := v.params().InjectKick
	if ev.Kind == guest.EvVIPI {
		// Cross-vCPU interrupt without delegation: the host must also
		// synchronize the target's virtual interrupt state.
		work += v.params().VGICSync
	}
	if v.kickRequested {
		return
	}
	v.kickRequested = true
	n.Kern.Submit(v.thread, "inject-kick", work, v.injectKickFn)
}

// injectKick is the host's kick work item for queued injections.
func (v *VCPU) injectKick() {
	if v.stopped {
		return
	}
	// If the guest is currently in (or entering) a run call, doorbell
	// its core; the monitor will exit with ExitKick. Otherwise the
	// events ride along on the next entry.
	if v.mb.State() == rpc.Serving {
		v.node().Mach.SendIPI(v.vm.assign.hostCore, v.dcore, hw.IPIHostToRMM)
	} else {
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	}
}

// onHostKick runs on the dedicated core when the host doorbells it.
func (v *VCPU) onHostKick() {
	if v.stopped || v.halted {
		return
	}
	v.node().Eng.Count(cHostKick)
	if !v.inGuest {
		return // already exited; the host will see the response
	}
	v.exitToHost(exitInfo{reason: ExitKick})
}

// onTick handles one virtual-timer tick (gapped mode).
func (v *VCPU) onTick() {
	if v.halted || v.stopped {
		return
	}
	if !v.gapped() {
		v.onTickShared()
		return
	}
	n := v.node()
	p := v.params()
	v.vm.count(&v.vm.met.ticks, ".ticks")

	if n.Opts.DelegateTimer {
		// Monitor-local emulation (§4.4): trap, re-arm, inject, guest
		// handler — all on the dedicated core, no host interaction.
		n.Eng.Count(cTickDeleg)
		n.Eng.Trace().Emit(sim.TCIRQ, "core.tick_delegated", int32(v.dcore), int64(v.idx))
		v.vm.count(&v.vm.met.ticksDelegated, ".ticks.delegated")
		if !v.inGuest {
			return // vCPU between run calls; tick state folded into entry
		}
		v.pauseGuestCompute()
		cost := p.RMMTimerHandle + p.GuestIRQHandle
		n.Mach.Core(v.dcore).RecordExecution(uarch.DomainMonitor, 0.02, 0)
		v.after(cost, "tick-delegated", contTick, 0)
		return
	}

	// Without delegation each tick costs two exits (§4.4): the timer
	// interrupt itself, then the guest's EOI/re-arm trap after handling.
	if !v.inGuest {
		return
	}
	v.pendingInj = append(v.pendingInj, guest.Event{Kind: guest.EvTimer})
	v.tickEOIPending = true
	v.exitToHost(exitInfo{reason: ExitTimer})
}

// delegatedTickDone ends the monitor's local tick emulation, unless an
// exit (tagged by epoch) intervened.
func (v *VCPU) delegatedTickDone(epoch uint64) {
	if v.stopped || !v.inGuest || v.epoch != epoch {
		// An exit (and possibly re-entry) intervened; the tick
		// folded into the exit path.
		return
	}
	v.vm.prog.Deliver(v.idx, guest.Event{Kind: guest.EvTimer})
	if v.idle {
		// Timer wake-up from WFI: re-evaluate the program.
		v.idle = false
		v.advance()
		return
	}
	v.resumeGuest()
}

func (v *VCPU) onMgmt() { v.onResidual(ExitMgmtIRQ) }
func (v *VCPU) onMisc() { v.onResidual(ExitMisc) }

// onResidual fires a background management/miscellaneous exit.
func (v *VCPU) onResidual(reason ExitReason) {
	if v.halted || v.stopped {
		return
	}
	p := v.params()
	rate := p.MgmtExitRate
	timer := v.mgmtTimer
	if reason == ExitMisc {
		rate = p.MiscExitRateDeleg
		if !v.node().Opts.DelegateTimer {
			rate = p.MiscExitRateNoDeleg
		}
		timer = v.miscTimer
	}
	timer.Arm(v.src.Exp(rateToMean(rate)))
	if v.inGuest && !v.idle {
		v.exitToHost(exitInfo{reason: reason})
	}
}

// delegatedVIPI is the Table 3 fast path: the monitor traps the sender's
// ICC_SGI1R write, routes the interrupt itself, and pokes the target's
// dedicated core with a physical IPI — no host involvement (§4.4).
func (v *VCPU) delegatedVIPI(target int) {
	n := v.node()
	p := v.params()
	n.Eng.Count(cVIPIDeleg)
	n.Eng.Trace().Emit(sim.TCIRQ, "core.vipi_delegated", int32(v.dcore), int64(target))
	v.vm.count(&v.vm.met.vipiDelegated, ".vipi.delegated")
	if target < 0 || target >= len(v.vm.vcpus) {
		v.advance()
		return
	}
	// Sender-side trap and routing cost in the monitor.
	v.remWork = 0
	v.after(p.RMMVIPIHandle, "vipi-delegated", contVIPISent, target)
}

// delegatedVIPISent ends the sender's trap: the physical IPI leaves for
// the target's dedicated core and the sender continues.
func (v *VCPU) delegatedVIPISent(target int) {
	if v.stopped {
		return
	}
	v.after(v.node().Mach.IPILatency(), "vipi-wire", contVIPIWire, target)
	v.advance() // sender continues immediately after the trap
}

// receiveDelegatedVIPI injects a vIPI on the target's dedicated core.
func (v *VCPU) receiveDelegatedVIPI(from int) {
	if v.stopped || v.halted {
		return
	}
	p := v.params()
	if !v.inGuest {
		// Between run calls: deliver on next entry.
		v.pendingInj = append(v.pendingInj, guest.Event{Kind: guest.EvVIPI, From: from})
		return
	}
	v.pauseGuestCompute()
	v.after(p.RMMVIPIHandle+p.GuestIRQHandle, "vipi-deliver", contVIPIDeliver, from)
}

// delegatedVIPIDelivered injects the vIPI from vCPU "from" once the
// monitor and guest handlers have run, or defers it to the next entry
// if the guest exited (epoch changed) meanwhile.
func (v *VCPU) delegatedVIPIDelivered(epoch uint64, from int) {
	if v.stopped {
		return
	}
	if !v.inGuest || v.epoch != epoch {
		// The guest exited under us: deliver on its next entry so
		// the interrupt is never lost.
		v.pendingInj = append(v.pendingInj, guest.Event{Kind: guest.EvVIPI, From: from})
		return
	}
	if v.deliverEvent(guest.Event{Kind: guest.EvVIPI, From: from}) {
		v.advance()
		return
	}
	v.resumeGuest()
}
