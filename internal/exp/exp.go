// Package exp is the declarative experiment layer on top of the core
// simulation stack.
//
// It splits every experiment of the paper's evaluation (§5, Tables 2–5,
// Figs. 3–10, the §6.1 discussion) into three pieces:
//
//   - a ScenarioSpec generator: a pure function from an experiment
//     Profile (root seed, reduced/full sweep) to the list of independent
//     trials — each spec names its configuration (shared-core baseline,
//     core-gapped default, the busy-wait/no-delegation ablations), the
//     machine shape, the workload and its parameters, the seed and the
//     simulation horizon;
//   - a trial interpreter (Execute): runs one ScenarioSpec on its own
//     private simulation engine and reduces it to named scalar values
//     plus run metadata — no state is shared between trials, so any
//     number of them may run concurrently;
//   - a pure reducer: folds the ordered trial results back into the
//     paper-shaped tables and figures.
//
// The Runner executes trial lists on a worker pool; because every trial
// owns its engine and is seeded from its spec alone, results are
// bit-identical to serial execution regardless of scheduling. The
// Registry makes every experiment discoverable by name (see registry.go);
// cmd/benchsuite, cmd/coregapctl, bench_test.go and the examples all
// drive it rather than calling experiment code directly.
package exp

import (
	"fmt"

	"coregap/internal/attack"
	"coregap/internal/core"
	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/vmm"
)

// Config names one of the execution policies the evaluation sweeps. It is
// the declarative counterpart of core.Options.
type Config string

// The five configurations used across the paper's experiments.
const (
	// ConfigBaseline is the traditional shared-core VM (§5.1).
	ConfigBaseline Config = "baseline"
	// ConfigGapped is the full core-gapping design: dedicated cores,
	// asynchronous RPC exits, delegated interrupt management.
	ConfigGapped Config = "gapped"
	// ConfigGappedNoDeleg is the Table 3/4 ablation without interrupt
	// delegation.
	ConfigGappedNoDeleg Config = "gapped-nodeleg"
	// ConfigGappedBusyWait is the Quarantine-style yield-polling ablation
	// (Fig. 6), without delegation.
	ConfigGappedBusyWait Config = "gapped-busywait"
	// ConfigGappedBusyWaitDeleg is busy-wait polling with interrupt
	// delegation enabled (Fig. 6's second cyan line).
	ConfigGappedBusyWaitDeleg Config = "gapped-busywait-deleg"
)

// Options maps the declarative config name to the core execution policy.
func (c Config) Options() core.Options {
	switch c {
	case ConfigBaseline:
		return core.Baseline()
	case ConfigGapped:
		return core.GappedDefault()
	case ConfigGappedNoDeleg:
		return core.GappedNoDelegation()
	case ConfigGappedBusyWait:
		return core.GappedBusyWait()
	case ConfigGappedBusyWaitDeleg:
		o := core.GappedBusyWait()
		o.DelegateTimer, o.DelegateVIPI = true, true
		return o
	}
	panic(fmt.Sprintf("exp: unknown config %q", c))
}

// ParseConfig resolves a config name, accepting the short aliases used on
// command lines (shared, gapped, nodeleg, busywait).
func ParseConfig(s string) (Config, error) {
	switch s {
	case string(ConfigBaseline), "shared", "shared-core":
		return ConfigBaseline, nil
	case string(ConfigGapped), "core-gapped":
		return ConfigGapped, nil
	case string(ConfigGappedNoDeleg), "nodeleg":
		return ConfigGappedNoDeleg, nil
	case string(ConfigGappedBusyWait), "busywait":
		return ConfigGappedBusyWait, nil
	case string(ConfigGappedBusyWaitDeleg), "busywait-deleg":
		return ConfigGappedBusyWaitDeleg, nil
	}
	return "", fmt.Errorf("unknown config %q", s)
}

// WorkloadKind names what a trial runs.
type WorkloadKind string

// Workload kinds. The first group builds a full Node and boots one or
// more VMs; the second drives the transport/attack machinery directly
// (Table 2, Fig. 3's battery, the §6.1 churn).
const (
	// WLCoreMark: VMs × VCPUs CoreMark-PRO guests, Work per vCPU.
	WLCoreMark WorkloadKind = "coremark"
	// WLCoreMarkPro: the per-phase CoreMark-PRO harness (geomean mark).
	WLCoreMarkPro WorkloadKind = "coremarkpro"
	// WLIPIBench: two-vCPU IPI ping-pong, Rounds round trips.
	WLIPIBench WorkloadKind = "ipibench"
	// WLNetPIPE: ping-pong of Bytes-sized messages over Dev, Rounds times.
	WLNetPIPE WorkloadKind = "netpipe"
	// WLIOzone: synchronous O_DIRECT I/O, Bytes record size, Total bytes.
	WLIOzone WorkloadKind = "iozone"
	// WLRedis: closed-loop Clients load of Op requests for Window.
	WLRedis WorkloadKind = "redis"
	// WLOpenLoop: open-loop Rate req/s of Op requests (Arrival process)
	// for Window, with per-window SLO tails and collapse detection.
	WLOpenLoop WorkloadKind = "openloop"
	// WLKBuild: parallel kernel build, Jobs jobs on VCPUs vCPUs.
	WLKBuild WorkloadKind = "kbuild"

	// WLNullRMMAsync: Fig. 4 asynchronous null RMM call round trips.
	WLNullRMMAsync WorkloadKind = "nullrmm-async"
	// WLNullRMMSync: busy-wait synchronous null call round trips.
	WLNullRMMSync WorkloadKind = "nullrmm-sync"
	// WLNullRMMSameCore: the same-core EL3 component (world switches plus
	// transient-execution mitigation flushes) — a modelled lower bound.
	WLNullRMMSameCore WorkloadKind = "nullrmm-samecore"
	// WLBattery: the full transient-execution attack battery under Sched.
	WLBattery WorkloadKind = "battery"
	// WLPTChurn: Ops stage-2 updates, Frac of them to unprotected memory,
	// under CCA rules or (TDXStyle) host-owned insecure page tables.
	WLPTChurn WorkloadKind = "ptchurn"
)

// Workload is the declarative description of what one trial runs. Only
// the fields relevant to Kind are consulted; see the kind comments.
type Workload struct {
	Kind  WorkloadKind
	VCPUs int          // guest vCPUs per VM
	VMs   int          // VM count (0 = 1)
	Work  sim.Duration // compute per vCPU (coremark kinds)

	Bytes  int               // message/record/request size
	Total  int64             // total bytes (iozone)
	Rounds int               // round trips (netpipe, ipibench, nullrmm)
	Jobs   int               // compile jobs (kbuild)
	Dev    guest.DeviceClass // NIC/disk class (netpipe, redis)

	Op      guest.RedisOp // redis operation
	Clients int           // closed-loop clients (redis) / connection pool (openloop)
	Window  sim.Duration  // measurement window (redis, openloop)
	Write   bool          // write instead of read (iozone)

	Rate    float64         // offered req/s (openloop)
	Arrival vmm.ArrivalKind // arrival process (openloop)
	SLO     sim.Duration    // per-window p99 target (openloop)

	Ops      int               // stage-2 updates (ptchurn)
	Frac     float64           // unprotected fraction (ptchurn)
	TDXStyle bool              // host-owned insecure tables (ptchurn)
	Sched    attack.Scheduling // battery scheduling
}

// ScenarioSpec is one fully-described, independently-executable trial.
type ScenarioSpec struct {
	// ID identifies the trial within its experiment (unique there).
	ID string
	// Config selects the execution policy.
	Config Config
	// Cores is the physical core count of the simulated machine.
	Cores int
	// Workload is what runs on it.
	Workload Workload
	// Seed seeds the trial's private simulation engine.
	Seed uint64
	// Horizon bounds simulated time; 0 picks a kind-appropriate default.
	Horizon sim.Duration
	// MetricsWindow, when non-zero, rolls every latency metric over
	// fixed simulated-time windows of this width; the interpreter
	// publishes the closed windows in Trial.Windows. Zero keeps the
	// whole-run histograms only.
	MetricsWindow sim.Duration
	// Trace arms the engine's sim-time flight recorder for this trial;
	// the captured events come back in Trial.TraceEvents. Off by
	// default: tracing costs a ring-buffer write per event, and the
	// zero-allocation engine gates assume the disabled fast path.
	Trace bool

	// Deprecated: BootKey has no effect. It is kept only because the
	// repository benchmark (perfbench) still reads it, and goes with
	// that benchmark's next change.
	BootKey string

	// Series/X place the trial's results on a figure: reducers group by
	// Series label and plot at coordinate X. Unused by table reducers.
	Series string
	X      float64
}

// Profile parameterizes spec generation: the root seed every trial seed
// derives from, and whether to build the paper-sized (Full) or reduced
// sweep.
type Profile struct {
	Seed uint64
	Full bool
}
