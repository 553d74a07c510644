// Command perfbench is the repository's benchmark. It runs registry
// experiments of the quick profile through the public exp API, serially
// on one pooled TrialContext per pass, measures what that costs the
// host, and checks that the outputs are correct and deterministic.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-long --seed 42 --seconds 30 --trace 0
//
// A run repeats rounds of passes over the workload's experiments for
// --seconds. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates traced and untraced rounds and reports the
// per-layer ledger folded from spans, a CPU profile and the trials'
// counters.
// The last line of standard output is the JSON result. README.md in
// this directory says why the workloads and metrics are what they are.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coregap/internal/exp"
)

// metric is one reported metric; the lists mirror BENCHMARK.json.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"cpu_s", "s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// counterMetrics are the per-layer counts read from Trial.Counters,
// under the program's own counter names.
var counterMetrics = []string{
	"uarch.flushes", "uarch.llc_fills", "uarch.llc_evictions",
	"hw.world_switches", "hw.ipis", "hw.irqs",
	"host.ctx_switches", "host.submits", "host.irq_steals",
	"core.vcpu_exits", "core.rec_enters", "core.irq_injections",
	"rmm.smc_calls", "granule.delegates", "gic.spi_triggers", "rpc.posts",
}

var perLayer = func() []metric {
	ms := []metric{
		{"exp.specs_s", "s"}, {"exp.context_s", "s"}, {"exp.execute_s", "s"}, {"exp.reduce_s", "s"},
		{"exp.trials", "count"},
		{"sim.events", "count"}, {"sim.ns_per_event", "ns/event"},
		{"uarch.cum_share", "ratio"},
		{"core.snapshot_hit_ratio", "ratio"},
		{"runtime.allocs_per_event", "allocs/event"}, {"runtime.bytes_per_event", "B/event"},
		{"runtime.gc_cpu_frac", "ratio"}, {"runtime.gc_cycles", "count"},
		{"bench.profile_samples", "count"}, {"bench.trace_overhead", "ratio"},
	}
	for _, c := range counterMetrics {
		ms = append(ms, metric{c, "count"})
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_share", "ratio"})
	}
	return ms
}()

// setupProbes is how many child processes measure set-up time; the
// median is reported.
const setupProbes = 31

var (
	workloadFlag = flag.String("workload", "", "workload: paper-long, paper-sweep or openloop")
	seedFlag     = flag.Uint64("seed", 42, "workload seed")
	secondsFlag  = flag.Float64("seconds", 30, "how long the passes run")
	traceFlag    = flag.Int("trace", 0, "1: traced run reporting the per-layer ledger; 0: end-to-end metrics")
	outFlag      = flag.String("out", "", "directory for traced-run spans (empty: not written)")
	probeFlag    = flag.Int64("setup-probe", 0, "internal: measure set-up from this UnixNano start and exit")
)

func main() {
	flag.Parse()
	w, ok := lookupWorkload(*workloadFlag)
	if !ok {
		fail("unknown workload %q", *workloadFlag)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail("--trace must be 0 or 1")
	}
	if *secondsFlag <= 0 {
		fail("--seconds must be positive")
	}
	es, err := w.experiments()
	if err != nil {
		fail("%v", err)
	}
	if *probeFlag != 0 {
		setupProbe(es, *seedFlag, *probeFlag)
		return
	}
	if err := run(w, es, *seedFlag, time.Duration(*secondsFlag*float64(time.Second)), *traceFlag == 1); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupProbe is the child side of the set-up measurement: everything a
// benchsuite invocation does before its first trial — process start,
// registry init, spec generation and the first TrialContext — then it
// prints the nanoseconds since the parent started it.
func setupProbe(es []*exp.Experiment, seed uint64, startNS int64) {
	for _, e := range es {
		_ = e.Specs(exp.Profile{Seed: seed})
	}
	ctx := exp.NewTrialContext()
	elapsed := time.Now().UnixNano() - startNS
	runtime.KeepAlive(ctx)
	fmt.Println(elapsed)
}

// measureSetup runs the set-up probe setupProbes times and returns the
// median, in seconds.
func measureSetup(w workload, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		start := time.Now().UnixNano()
		out, err := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--setup-probe", strconv.FormatInt(start, 10)).Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return 0, fmt.Errorf("setup probe: empty output")
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		xs = append(xs, float64(ns)/1e9)
	}
	m := median(xs)
	fmt.Printf("setup: %d probes, median %.6gs, fastest %.6gs, slowest %.6gs\n", len(xs), m, xs[0], xs[len(xs)-1])
	return m, nil
}

func run(w workload, es []*exp.Experiment, seed uint64, dur time.Duration, traced bool) error {
	var tr *tracer
	var setup float64
	if traced {
		tr = &tracer{origin: time.Now()}
	} else {
		var err error
		if setup, err = measureSetup(w, seed); err != nil {
			return err
		}
	}
	prof := newFold()
	var passes []*pass
	start := time.Now()
	// Passes come in rounds of one seed cycle each, and a run ends on a
	// round boundary. Every seed runs at least twice, so each has a
	// repeat to check; traced runs alternate rounds traced and untraced.
	for i := 0; i%w.seeds != 0 || i < 2*w.seeds || time.Since(start) < dur; i++ {
		seedP := passSeed(seed, i%w.seeds)
		if !traced || (i/w.seeds)%2 == 1 {
			passes = append(passes, runPass(w, es, i, seedP, nil))
			continue
		}
		tr.pass = i
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		passes = append(passes, runPass(w, es, i, seedP, tr))
		pprof.StopCPUProfile()
		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		prof.add(samples)
	}

	v := judge(passes)
	refs := refsFor(w.name)
	errs, meanErr, err := paperErrors(refs, passes[:w.seeds])
	if err != nil {
		v.problems = append(v.problems, err.Error())
	}
	printRun(w, seed, passes, v)
	printPaper(w, errs, meanErr)

	var values map[string]float64
	var units []metric
	if traced {
		values, units = ledger(passes, tr, prof), perLayer
		if err := writeSpans(w, seed, tr); err != nil {
			return err
		}
	} else {
		values, units = endToEndValues(w, passes, setup), endToEnd
	}
	res := result{Correct: v.failed == 0 && len(v.problems) == 0, Attempted: v.attempted,
		Failed: v.failed, Metrics: map[string]resultMetric{}}
	fmt.Println("metrics:")
	for _, m := range units {
		x, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s not computed", m.name)
		}
		fmt.Printf("  %-28s %.6g %s\n", m.name, x, m.unit)
		res.Metrics[m.name] = resultMetric{Value: x, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// endToEndValues reports the run's rounds: the CPU and wall time of the
// fastest round, and the median round's allocation. A round is one pass
// per seed of the workload's cycle, each pass a benchsuite-equivalent
// execution of the workload's experiments.
//
// Co-tenants on a shared host slow memory-bound code by tens of percent
// for seconds to minutes at a time, and they only ever slow it. The
// work of a round is fixed by its seeds, so the fastest round is the
// steadiest estimate of its cost; the median is printed beside it.
func endToEndValues(w workload, passes []*pass, setup float64) map[string]float64 {
	var cpu, wall, alloc []float64
	for r := 0; r+w.seeds <= len(passes); r += w.seeds {
		var c, wl, a float64
		for _, p := range passes[r : r+w.seeds] {
			c += p.cpu.Seconds()
			wl += p.wall.Seconds()
			a += float64(p.alloc.allocBytes) / 1e6
		}
		cpu, wall, alloc = append(cpu, c), append(wall, wl), append(alloc, a)
	}
	fmt.Printf("rounds: %d; cpu_s median %.6g, wall_s median %.6g\n", len(cpu), median(cpu), median(wall))
	return map[string]float64{
		"cpu_s":       slices.Min(cpu),
		"wall_s":      slices.Min(wall),
		"setup_s":     setup,
		"alloc_mb":    median(alloc),
		"peak_rss_mb": peakRSSMB(),
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// ledger folds the traced passes into the per-layer metrics. Times and
// ratios come from the traced passes' spans and profile; counts come
// from pass 0, which the correctness check holds equal to every repeat.
func ledger(passes []*pass, tr *tracer, prof *fold) map[string]float64 {
	out := map[string]float64{}
	p0 := passes[0]
	out["exp.trials"] = float64(p0.trials)
	out["sim.events"] = float64(p0.events)
	for _, c := range counterMetrics {
		out[c] = float64(p0.counters[c])
	}
	out["core.snapshot_hit_ratio"] = ratio(float64(p0.counters["snapshot.hit"]), float64(p0.bootKeyed))

	// Per traced pass: CPU seconds by span name.
	byPass := map[int]map[string]float64{}
	var execCPU, execEvents, execAllocs, execBytes float64
	type expCost struct{ cpu, events float64 }
	perExp := map[string]*expCost{}
	for _, s := range tr.spans {
		if byPass[s.Pass] == nil {
			byPass[s.Pass] = map[string]float64{}
		}
		byPass[s.Pass][s.Name] += float64(s.CPUNS) / 1e9
		if s.Name != "execute" {
			continue
		}
		execCPU += float64(s.CPUNS)
		execEvents += float64(s.Events)
		execAllocs += float64(s.AllocObjs)
		execBytes += float64(s.AllocBytes)
		if perExp[s.Experiment] == nil {
			perExp[s.Experiment] = &expCost{}
		}
		perExp[s.Experiment].cpu += float64(s.CPUNS)
		perExp[s.Experiment].events += float64(s.Events)
	}
	for _, name := range []string{"specs", "context", "execute", "reduce"} {
		var xs []float64
		for _, m := range byPass {
			xs = append(xs, m[name])
		}
		out["exp."+name+"_s"] = median(xs)
	}
	out["sim.ns_per_event"] = ratio(execCPU, execEvents)
	out["runtime.allocs_per_event"] = ratio(execAllocs, execEvents)
	out["runtime.bytes_per_event"] = ratio(execBytes, execEvents)

	var tracedCPU, plainCPU, gcCycles []float64
	var gcCPU, cpu float64
	for _, p := range passes {
		if !p.traced {
			plainCPU = append(plainCPU, p.cpu.Seconds())
			continue
		}
		tracedCPU = append(tracedCPU, p.cpu.Seconds())
		gcCycles = append(gcCycles, float64(p.alloc.gcCycles))
		gcCPU += p.alloc.gcCPU
		cpu += p.cpu.Seconds()
	}
	out["runtime.gc_cycles"] = median(gcCycles)
	out["runtime.gc_cpu_frac"] = ratio(gcCPU, cpu)
	out["bench.trace_overhead"] = ratio(median(tracedCPU), median(plainCPU))

	out["bench.profile_samples"] = float64(prof.total)
	out["uarch.cum_share"] = prof.share(prof.uarchCum)
	var selfSum float64
	for _, l := range layers {
		out[l+".self_share"] = prof.share(prof.self[l])
		selfSum += out[l+".self_share"]
	}

	fmt.Printf("ledger: %d profile samples over %d traced passes; self shares sum to %.4f; tracing overhead %.3f (traced/untraced cpu_s)\n",
		prof.total, len(tracedCPU), selfSum, out["bench.trace_overhead"])
	fmt.Println("  per experiment (traced passes):")
	names := make([]string, 0, len(perExp))
	for n := range perExp {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := perExp[n]
		fmt.Printf("    exp.%s.ns_per_event %.1f ns/event  cpu_share %.3f  (%.0f events)\n",
			n, ratio(c.cpu, c.events), prof.share(prof.byExperiment[n]), c.events)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func printRun(w workload, seed uint64, passes []*pass, v verdict) {
	fmt.Printf("workload %s  seed %d  experiments %s  passes %d\n", w.name, seed, strings.Join(w.exps, ","), len(passes))
	for _, p := range passes {
		tag := ""
		if p.traced {
			tag = " traced"
		}
		fmt.Printf("  pass %3d seed %-20d cpu %.4fs wall %.4fs alloc %.1fMB trials %d digest %.16s%s\n",
			p.index, p.seed, p.cpu.Seconds(), p.wall.Seconds(), float64(p.alloc.allocBytes)/1e6, p.trials, p.digest, tag)
	}
	for _, p := range passes[:w.seeds] {
		fmt.Printf("seed %d: digest %s events %d\n  counters:", p.seed, p.digest, p.events)
		names := make([]string, 0, len(p.counters))
		for n := range p.counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf(" %s=%d", n, p.counters[n])
		}
		fmt.Println()
	}
	fmt.Printf("correctness: %d of %d operations failed\n", v.failed, v.attempted)
	for _, pr := range v.problems {
		fmt.Printf("  FAIL %s\n", pr)
	}
}

func printPaper(w workload, errs []paperError, mean float64) {
	if len(errs) == 0 {
		fmt.Printf("paper_rel_err: unvalidated (the paper reports no %s counterpart)\n", w.name)
		return
	}
	fmt.Println("paper agreement (mean over the run's seed cycle):")
	for _, e := range errs {
		fmt.Printf("  %-50s paper %-8g %-5s measured %-12.4g rel_err %.4f\n",
			e.ref.source, e.ref.paper, e.ref.unit, e.measured, e.err)
	}
	fmt.Printf("paper_rel_err %.6f ratio\n", mean)
}

// writeSpans writes the traced run's spans as JSON into --out.
func writeSpans(w workload, seed uint64, tr *tracer) error {
	if *outFlag == "" {
		return nil
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(*outFlag, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("spans: %s (%d)\n", path, len(tr.spans))
	return nil
}
