package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"coregap/internal/exp"
)

// workload is one benchmark input: the registry experiments a pass runs,
// in registry order, and how many distinct seeds the passes of a run
// cycle through. Every workload mixes shared-core and core-gapped
// configurations.
type workload struct {
	name string
	exps []string
	// seeds is the length of the pass-seed cycle: pass p runs at
	// passSeed(seed, p%seeds). One means every pass repeats the
	// workload seed itself.
	seeds int
}

var workloads = []workload{
	// Long trials: the steady-state exit → host → re-entry loop and the
	// µarch model dominate; set-up is negligible.
	{name: "paper-long", exps: []string{"table4", "table5", "fig6", "fig10"}, seeds: 1},
	// Many short trials: per-trial fixed costs (context reset, boot and
	// snapshot forking, spec generation, reducers, the attack battery).
	// Cycling derived seeds keeps the sweep from replaying one input.
	{name: "paper-sweep", exps: []string{"table2", "table3", "fig3", "fig7", "fig8", "fig9", "tdx"}, seeds: 4},
	// The only workload on the open-loop generator, the windowed
	// recorder and streamed reduction; the largest resident set.
	{name: "openloop", exps: []string{"openloop", "openloop-burst", "openloop-hi"}, seeds: 1},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// experiments resolves the workload's registry entries.
func (w workload) experiments() ([]*exp.Experiment, error) {
	es := make([]*exp.Experiment, len(w.exps))
	for i, name := range w.exps {
		e, ok := exp.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: experiment %q not registered", w.name, name)
		}
		es[i] = e
	}
	return es, nil
}

// passSeed derives the root seed of the i-th entry of a pass-seed cycle.
// Entry 0 is the workload seed itself, so pass 0 reproduces exactly what
// `benchsuite -seed <seed>` prints; later entries are splitmix64 mixes.
func passSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pass is what one execution of a workload's experiments produced: its
// host costs, and the deterministic outputs the correctness check and
// the ledger compare across repeats.
type pass struct {
	index     int
	seed      uint64
	traced    bool
	cpu, wall time.Duration
	alloc     runtimeSample

	trials int
	// failures names every trial that returned an error or failed a
	// check, with the reason.
	failures []string
	// digest hashes every artifact CSV of the pass, in experiment order.
	digest string
	// events is the engine events fired, summed over the trials, and
	// counters the summed Trial.Counters banks.
	events   uint64
	counters map[string]uint64
	// bootKeyed counts trials that carry a BootKey (snapshot-forking
	// candidates).
	bootKeyed int
	// values holds the trial values the paper references read, keyed
	// by experiment/trial/value.
	values map[string]float64
}

// fingerprint is the pass's deterministic output: the artifact digest
// plus the counter totals. Two passes at the same seed must agree on it.
func (p *pass) fingerprint() string {
	names := make([]string, 0, len(p.counters))
	for n := range p.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "digest=%s events=%d trials=%d", p.digest, p.events, p.trials)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, p.counters[n])
	}
	return b.String()
}

// valueKey names one trial value for the paper references.
func valueKey(experiment, trial, value string) string {
	return experiment + "/" + trial + "/" + value
}

// runPass executes every experiment of the workload once, serially, on
// one fresh TrialContext — what one `benchsuite -parallel 1` invocation
// does — and reduces each experiment through its Stream or Reduce hook.
// A non-nil tracer records spans around the calls into the exp layer.
func runPass(w workload, es []*exp.Experiment, index int, seed uint64, tr *tracer) *pass {
	p := &pass{index: index, seed: seed, traced: tr != nil, counters: map[string]uint64{}, values: map[string]float64{}}
	cpu0, wall0, rt0 := cpuTime(), time.Now(), readRuntime()
	prof := exp.Profile{Seed: seed}

	specs := make([][]exp.ScenarioSpec, len(es))
	for i, e := range es {
		tr.span("specs", e.Name, func() { specs[i] = e.Specs(prof) })
	}
	var ctx *exp.TrialContext
	tr.span("context", "", func() { ctx = exp.NewTrialContext() })

	h := sha256.New()
	for i, e := range es {
		var st exp.Streamer
		if e.Stream != nil {
			st = e.Stream(prof, specs[i])
		}
		var trials []exp.Trial
		ok := true
		for _, spec := range specs[i] {
			var t exp.Trial
			var err error
			tr.execute(w.name, e.Name, spec, func() uint64 {
				t, err = exp.ExecuteIn(ctx, spec)
				return t.Meta.Events
			})
			p.trials++
			if err == nil {
				err = checkTrial(t)
			}
			if err != nil {
				p.failures = append(p.failures, fmt.Sprintf("%s/%s: %v", e.Name, spec.ID, err))
				ok = false
				continue
			}
			p.observe(e.Name, t)
			if !ok {
				continue
			}
			if st != nil {
				tr.span("reduce", e.Name, func() { st.Consume(t) })
			} else {
				trials = append(trials, t)
			}
		}
		if !ok {
			fmt.Fprintf(h, "%s: failed\n", e.Name)
			continue
		}
		var rep *exp.Report
		tr.span("reduce", e.Name, func() {
			if st != nil {
				rep = st.Finish()
			} else {
				rep = e.Reduce(prof, trials)
			}
		})
		for _, a := range rep.Artifacts {
			fmt.Fprintf(h, "%s/%s\n%s", e.Name, a.Name, a.Item.CSV())
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.cpu, p.wall, p.alloc = cpuTime()-cpu0, time.Since(wall0), readRuntime().sub(rt0)
	return p
}

// checkTrial is the per-trial output check: a core-gapped trial whose
// attestation token was issued must attest that its realm is core-gapped.
func checkTrial(t exp.Trial) error {
	if v, ok := t.Values["attest.coregapped"]; ok && t.Spec.Config != exp.ConfigBaseline && v != 1 {
		return fmt.Errorf("config %s attests coregapped=%v", t.Spec.Config, v)
	}
	return nil
}

// observe folds one trial's deterministic outputs into the pass.
func (p *pass) observe(experiment string, t exp.Trial) {
	p.events += t.Meta.Events
	for n, v := range t.Counters {
		p.counters[n] += v
	}
	if t.Spec.BootKey != "" {
		p.bootKeyed++
	}
	for _, r := range paperRefs {
		if r.experiment == experiment && r.trial == t.Spec.ID {
			if v, ok := t.Values[r.value]; ok {
				p.values[valueKey(experiment, r.trial, r.value)] = v
			}
		}
	}
}

// verdict is the correctness outcome of a run.
type verdict struct {
	attempted, failed int
	problems          []string
}

// judge counts failed operations over a run's passes. Every trial is an
// attempted operation, failed if it errored or failed checkTrial. Every
// pass after the first at the same seed is one more attempted operation,
// failed if its fingerprint differs from that first pass's.
func judge(passes []*pass) verdict {
	var v verdict
	first := map[uint64]*pass{}
	for _, p := range passes {
		v.attempted += p.trials
		v.failed += len(p.failures)
		for _, f := range p.failures {
			v.problems = append(v.problems, fmt.Sprintf("pass %d: %s", p.index, f))
		}
		ref, seen := first[p.seed]
		if !seen {
			first[p.seed] = p
			continue
		}
		v.attempted++
		if p.fingerprint() != ref.fingerprint() {
			v.failed++
			v.problems = append(v.problems, fmt.Sprintf(
				"pass %d (seed %d) differs from pass %d:\n  %s\n  %s",
				p.index, p.seed, ref.index, p.fingerprint(), ref.fingerprint()))
		}
	}
	return v
}
