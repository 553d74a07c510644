package exp

import (
	"fmt"

	"coregap/internal/core"
	"coregap/internal/hw"
	"coregap/internal/sim"
)

// snapshotForking gates boot-snapshot forking process-wide (the
// benchsuite -snapshot flag). On by default; generators opt individual
// sweeps in via ScenarioSpec.BootKey. Not safe to flip mid-run.
var snapshotForking = true

// SetSnapshotForking enables or disables boot-snapshot forking for
// subsequent trials. Call before starting a run.
func SetSnapshotForking(on bool) { snapshotForking = on }

// SnapshotForking reports whether boot-snapshot forking is enabled.
func SnapshotForking() bool { return snapshotForking }

// TrialContext is one worker's warmed simulation substrate, reused
// across every trial that worker executes. It wraps a core.Context —
// engine (event heap, node free list, named sources), machine (per-core
// microarchitectural buffers, the granule table's touched chunks, shared
// socket state), interrupt distributor and metric set — and rewinds it
// per trial instead of rebuilding the object graph.
//
// With one TrialContext per worker the steady-state trial allocates
// only its thin per-trial stack (kernel, monitor, VMs, result maps).
// The granule table allocates its chunks on first mutation, so a fresh
// substrate costs a few hundred KiB; pooling saves construction work
// more than bytes.
//
// A TrialContext is not safe for concurrent use; the Runner hands each
// worker goroutine its own. Determinism is unaffected: every Reset
// leaves the context observationally identical to freshly constructed
// components, so ExecuteIn(ctx, spec) and Execute(spec) return
// byte-identical trials.
type TrialContext struct {
	core *core.Context
	// boots caches boot snapshots across this worker's trials, keyed by
	// ScenarioSpec.BootKey (plus config and core count); trials sharing
	// a key fork their guest boots instead of replaying realm
	// construction. Lazily built on the first keyed trial.
	boots *core.BootCache
}

// NewTrialContext returns a context ready for any sequence of specs.
func NewTrialContext() *TrialContext {
	return &TrialContext{core: core.NewContext()}
}

// node resets the context for spec and boots a node on it. A nil
// context (fresh-execution mode) builds everything from scratch,
// which is the reference behaviour pooling must reproduce exactly.
func (c *TrialContext) node(spec ScenarioSpec) *core.Node {
	opts := spec.Config.Options()
	opts.MetricsWindow = spec.MetricsWindow
	if c == nil {
		return core.NewNode(spec.Cores, opts, core.DefaultParams(), spec.Seed)
	}
	c.core.Reset(spec.Cores, spec.Seed)
	n := core.NewNodeIn(c.core, opts, core.DefaultParams())
	// Arm boot-snapshot forking for keyed, untraced trials. Traced
	// trials must replay the full boot — the granule-protocol trace
	// events of a forked boot would otherwise vanish from the capture.
	if spec.BootKey != "" && !spec.Trace && snapshotForking {
		if c.boots == nil {
			c.boots = core.NewBootCache()
		}
		n.UseBootCache(c.boots, fmt.Sprintf("%s|%s|%d", spec.BootKey, spec.Config, spec.Cores))
	}
	return n
}

// engine resets the context to a cores-core machine for seed and
// returns its engine (raw-transport trials that never boot a node).
func (c *TrialContext) engine(cores int, seed uint64) *sim.Engine {
	if c == nil {
		return sim.NewEngine(seed)
	}
	c.core.Reset(cores, seed)
	return c.core.Eng
}

// machine is engine plus the machine itself, for trials that drive
// hardware directly (the null-call paths, the attack battery).
func (c *TrialContext) machine(cores int, seed uint64) (*sim.Engine, *hw.Machine) {
	if c == nil {
		eng := sim.NewEngine(seed)
		return eng, hw.NewMachine(eng, hw.DefaultConfig(cores))
	}
	c.core.Reset(cores, seed)
	return c.core.Eng, c.core.Mach
}

// kernelParts is machine plus the pooled distributor and metric set,
// for raw-transport trials that build a bare host kernel.
func (c *TrialContext) kernelParts(cores int, seed uint64) *core.Context {
	if c == nil {
		ctx := core.NewContext()
		ctx.Reset(cores, seed)
		return ctx
	}
	c.core.Reset(cores, seed)
	return c.core
}
