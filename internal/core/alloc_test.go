package core

import (
	"testing"

	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/vmm"
)

// steadyAllocs warms a node for warm of simulated time, then reports the
// mean allocations per 1 ms of further simulation.
func steadyAllocs(t *testing.T, n *Node, warm sim.Duration) float64 {
	t.Helper()
	n.Eng.RunFor(warm)
	fired := n.Eng.EventsFired()
	avg := testing.AllocsPerRun(20, func() { n.Eng.RunFor(sim.Millisecond) })
	if n.Eng.EventsFired()-fired < 20 {
		t.Fatalf("only %d events in the measured window: the loop is not running", n.Eng.EventsFired()-fired)
	}
	return avg
}

// exitCycleWorkloads boot one paper-path workload on a fresh node.
var exitCycleWorkloads = []struct {
	name  string
	cores int
	boot  func(t *testing.T, n *Node)
}{
	// The Table 4 loop: CoreMark-PRO on 15 vCPUs of a 16-core machine.
	{"coremarkpro", 16, func(t *testing.T, n *Node) {
		cmp := guest.NewCoreMarkPro(15, 100*sim.Second, n.Eng.Now)
		if _, err := n.NewVM("vm0", 15, cmp); err != nil {
			t.Fatal(err)
		}
	}},
	// The IPI ping-pong adds the (delegated) vIPI paths.
	{"ipibench", 4, func(t *testing.T, n *Node) {
		if _, err := n.NewVM("vm0", 2, guest.NewIPIBench(1<<30)); err != nil {
			t.Fatal(err)
		}
	}},
	// The Table 5 loop: a closed-loop client pool drives Redis over the
	// SR-IOV VF, adding peer wire and DMA deliveries, NAPI delivery and
	// host-requested injections.
	{"redis-sriov", 16, func(t *testing.T, n *Node) {
		vcpus := 16
		if n.Opts.Mode == Gapped {
			vcpus = 15
		}
		vm, err := n.NewVM("vm0", vcpus, guest.NewRedis(guest.SRIOVNet))
		if err != nil {
			t.Fatal(err)
		}
		peer := vmm.NewPeer(n.Eng, vm.VMM.Costs(), n.Met)
		peer.Connect(vm.VMM.VF.DeliverToGuest)
		lg := vmm.NewLoadGen(peer, 50, 512,
			func(c int) int { return guest.EncodeOpTag(guest.OpGet, c) }, "redis.latency")
		vm.VMM.VF.ConnectPeer(lg.OnResponse)
		n.Eng.After(5*sim.Millisecond, "start-load", lg.Start)
	}},
	// The Fig. 10 loop: a parallel kernel build on virtio-blk, the only
	// registry workload whose host slices outlast the scheduler quantum,
	// so the quantum is armed and expires there too.
	{"kbuild", 8, func(t *testing.T, n *Node) {
		vcpus := 8
		if n.Opts.Mode == Gapped {
			vcpus = 7
		}
		kb := guest.NewKBuild(1000, vcpus, 250*sim.Millisecond, n.Eng.Source("kbuild"))
		if _, err := n.NewVM("vm0", vcpus, kb); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestZeroAllocExitCycle is the allocation gate of the paper path: once
// a node is warm, the exit → host → re-entry loop — guest compute
// slices, timer exits or delegated ticks, residual exits, the RPC
// mailbox round trip, wake-up scans, host scheduling and IRQ steals —
// allocates nothing, in the shared-core baseline and in every gapped
// configuration. Mirrors the engine's TestZeroAlloc* gates and
// TestZeroAllocOpenLoad.
func TestZeroAllocExitCycle(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"shared-core", Baseline()},
		{"gapped", GappedNoDelegation()},
		{"gapped-deleg", GappedDefault()},
		{"gapped-busywait", GappedBusyWait()},
	}
	for _, w := range exitCycleWorkloads {
		for _, m := range modes {
			t.Run(w.name+"/"+m.name, func(t *testing.T) {
				n := NewNode(w.cores, m.opts, DefaultParams(), 42)
				w.boot(t, n)
				if avg := steadyAllocs(t, n, 300*sim.Millisecond); avg != 0 {
					t.Errorf("%.2f allocs per 1 ms of steady state, want 0", avg)
				}
			})
		}
	}
}
