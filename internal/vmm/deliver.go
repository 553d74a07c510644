package vmm

import "coregap/internal/sim"

// delivery is one message in flight on a wire or a DMA engine: the
// receive function and its (vcpu, bytes, tag) arguments, handed over
// when the delay elapses.
type delivery struct {
	pool             *deliveries
	rx               func(vcpu, bytes, tag int)
	vcpu, bytes, tag int
	fire             func() // d.deliver, bound once
}

// deliveries is a free list of delivery records. Each device or peer
// owns one, so its message traffic allocates nothing in steady state.
type deliveries struct {
	free []*delivery
}

// after schedules rx(vcpu, bytes, tag) to run d from now.
func (p *deliveries) after(eng *sim.Engine, d sim.Duration, label string, rx func(vcpu, bytes, tag int), vcpu, bytes, tag int) {
	var m *delivery
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		m = &delivery{pool: p}
		m.fire = m.deliver
	}
	m.rx, m.vcpu, m.bytes, m.tag = rx, vcpu, bytes, tag
	eng.After(d, label, m.fire)
}

func (m *delivery) deliver() {
	rx, vcpu, bytes, tag := m.rx, m.vcpu, m.bytes, m.tag
	m.rx = nil
	m.pool.free = append(m.pool.free, m)
	rx(vcpu, bytes, tag)
}
