package core

import "coregap/internal/sim"

// contKind names a delayed monitor-local step of a vCPU.
type contKind uint8

const (
	contEntry          contKind = iota // entry's interrupt handlers done (gapped)
	contTick                           // delegated timer tick handled (gapped)
	contVIPISent                       // sender's delegated-vIPI trap done; arg = target
	contVIPIWire                       // delegated vIPI reaches the target; arg = target
	contVIPIDeliver                    // target's delegated-vIPI handlers done; arg = sender
	contSharedVIPIWire                 // shared-core vIPI reaches the target; arg = target
)

// vcont is the per-call data of one delayed step: the vCPU epoch when
// it was scheduled (so a step overtaken by an exit and re-entry knows
// it is stale) and one vCPU index. Several steps of a vCPU can be in
// flight at once, so the records are free-listed on the vCPU, each with
// its fire callback bound once: scheduling allocates nothing in steady
// state.
type vcont struct {
	v     *VCPU
	kind  contKind
	epoch uint64
	arg   int
	fire  func() // c.run, bound once
}

// after schedules the step kind to run d from now, tagged with the
// current epoch.
func (v *VCPU) after(d sim.Duration, label string, kind contKind, arg int) {
	var c *vcont
	if n := len(v.contFree); n > 0 {
		c = v.contFree[n-1]
		v.contFree = v.contFree[:n-1]
	} else {
		c = &vcont{v: v}
		c.fire = c.run
	}
	c.kind, c.epoch, c.arg = kind, v.epoch, arg
	v.eng().After(d, label, c.fire)
}

func (c *vcont) run() {
	v, kind, epoch, arg := c.v, c.kind, c.epoch, c.arg
	v.contFree = append(v.contFree, c)
	switch kind {
	case contEntry:
		v.entryProceed(epoch)
	case contTick:
		v.delegatedTickDone(epoch)
	case contVIPISent:
		v.delegatedVIPISent(arg)
	case contVIPIWire:
		v.vm.vcpus[arg].receiveDelegatedVIPI(v.idx)
	case contVIPIDeliver:
		v.delegatedVIPIDelivered(epoch, arg)
	case contSharedVIPIWire:
		v.vm.vcpus[arg].sharedVIPIArrived(v.idx)
	}
}
