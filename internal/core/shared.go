package core

import (
	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// This file is the shared-core baseline (§5.1): a traditional
// non-confidential VM. Guest compute runs inside vCPU threads that
// time-share the host's online cores under the kernel scheduler; exits
// are handled on the same core by in-kernel KVM; device emulation runs on
// the VMM's floating I/O thread. The costs this path pays that the
// gapped path does not — same-core exit handling, host interference with
// guest microarchitectural state — and vice versa are exactly what the
// evaluation measures.

// startShared boots a shared-mode vCPU.
func (v *VCPU) startShared() {
	v.startTimers()
	v.advanceShared()
}

// advanceShared interprets the next program action on the vCPU thread.
func (v *VCPU) advanceShared() {
	if v.stopped || v.halted || v.waitIO || v.idle {
		return
	}
	n := v.node()
	p := v.params()
	if !v.hasCur {
		v.cur = v.vm.prog.Next(v.idx)
		v.hasCur = true
	}
	switch v.cur.Kind {
	case guest.ActCompute:
		work := sim.Duration(float64(v.cur.Work) * v.encFactor())
		v.hasCur = false
		n.Kern.Submit(v.thread, "guest", work, v.advanceSharedFn)

	case guest.ActIO:
		req := v.cur.Req
		v.hasCur = false
		v.sharedReqs.PushBack(req)
		if req.Dev == guest.SRIOVNet {
			n.Kern.Submit(v.thread, "vf-doorbell", 200, v.sharedVFDoneFn)
			return
		}
		// virtio doorbell: same-core exit bouncing to the userspace VMM
		// (one local user/kernel round trip), then the request lands on
		// the VMM I/O thread.
		v.countExit(ExitMMIO)
		n.Kern.Submit(v.thread, "mmio-exit", p.KVMExitKernel+p.SharedMMIO, v.sharedMMIODoneFn)

	case guest.ActVIPI:
		target := v.cur.Target
		v.hasCur = false
		if target >= 0 && target < len(v.vm.vipiSentAt) {
			v.vm.vipiSentAt[target] = v.eng().Now()
		}
		v.countExit(ExitVIPI)
		// Sender's trap is handled by the in-kernel vGIC fast path on
		// the same core (Table 3's 3.85 µs), then a physical IPI kicks
		// the target core.
		v.sharedVIPIs.PushBack(target)
		n.Kern.Submit(v.thread, "vipi-exit", p.SharedVGIC+150, v.sharedVIPIDoneFn)

	case guest.ActWFI:
		v.hasCur = false
		v.idle = true
		// The vCPU thread blocks in the kernel (WFI trap); nothing to do.

	case guest.ActHalt:
		v.hasCur = false
		v.halted = true
		v.stopTimers()
	}
}

// sharedVFDone completes the SR-IOV doorbell write: the request goes to
// the VF and the guest continues (or waits for a synchronous
// completion).
func (v *VCPU) sharedVFDone() {
	req := v.sharedReqs.PopFront()
	v.vm.VMM.VF.Submit(v.idx, req)
	if req.Sync {
		v.waitIO = true
	} else {
		v.advanceShared()
	}
}

// sharedMMIODone completes a virtio doorbell exit: the request lands on
// the VMM I/O thread.
func (v *VCPU) sharedMMIODone() {
	req := v.sharedReqs.PopFront()
	v.vm.VMM.Submit(v.idx, req)
	if req.Sync {
		v.waitIO = true
	} else {
		v.advanceShared()
	}
}

// sharedVIPIDone completes the sender's vGIC trap: the physical IPI
// leaves for the target's core and the sender continues.
func (v *VCPU) sharedVIPIDone() {
	if target := v.sharedVIPIs.PopFront(); target >= 0 && target < len(v.vm.vcpus) {
		v.after(v.node().Mach.IPILatency(), "vipi-wire", contSharedVIPIWire, target)
	}
	v.advanceShared()
}

// sharedVIPIArrived injects the vIPI from vCPU "from" into this guest.
func (v *VCPU) sharedVIPIArrived(from int) {
	v.sharedInject(guest.Event{Kind: guest.EvVIPI, From: from})
}

// sharedInject delivers an event to a shared-core guest: in-kernel vGIC
// injection plus the guest's handler, charged on the vCPU thread.
func (v *VCPU) sharedInject(ev guest.Event) {
	if v.stopped || v.halted {
		return
	}
	p := v.params()
	v.sharedEvs.PushBack(ev)
	v.node().Kern.Submit(v.thread, "inject", p.SharedVGIC+p.GuestIRQHandle, v.sharedInjectFn)
}

// sharedInjectDone delivers the oldest injected event once its handler
// cost has run on the vCPU thread.
func (v *VCPU) sharedInjectDone() {
	if v.deliverEvent(v.sharedEvs.PopFront()) {
		v.advanceShared()
	}
}

// onTickShared charges one timer tick on the shared path: the exit and
// vGIC work happen on whatever core the vCPU occupies, stealing guest
// time, polluting the guest's microarchitectural state, and forcing a
// partial re-warm (§2.3's interference cost).
func (v *VCPU) onTickShared() {
	n := v.node()
	p := v.params()
	v.vm.count(&v.vm.met.ticks, ".ticks")
	v.countExit(ExitTimer)

	base := p.KVMExitKernel + p.SharedVGIC + p.GuestIRQHandle + p.HostNoise

	if n.Kern.Running(v.thread.Core()) == v.thread {
		core := n.Mach.Core(v.thread.Core())
		warmth := core.Uarch.Warmth(v.vm.domain)
		// The re-warm penalty scales with the working set at risk: a
		// cache-hungry workload pays more for the same interference.
		rewarm := sim.Duration((1 - warmth) * v.footprint() / p.GuestFootprint * float64(p.RewarmCost))
		// The host's handler runs on the guest's core, evicting state.
		core.RecordExecution(uarch.DomainHost, 0.08, 0)
		n.Kern.StealCPU(v.thread.Core(), base+rewarm, nil)
		return
	}
	// vCPU not on a core right now (queued or in WFI): charge the
	// handler as a work item, which also wakes an idle guest.
	n.Kern.Submit(v.thread, "tick", base, v.sharedTickFn)
}

// sharedTickDone delivers a tick charged as a work item, waking an idle
// guest.
func (v *VCPU) sharedTickDone() {
	v.vm.prog.Deliver(v.idx, guest.Event{Kind: guest.EvTimer})
	if v.idle {
		v.idle = false
		v.advanceShared()
	}
}
