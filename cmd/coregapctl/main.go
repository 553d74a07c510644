// Command coregapctl runs one VM scenario on a simulated node and prints
// its metrics — a workbench for exploring how execution mode, delegation
// and placement affect a workload.
//
// Scenarios are the same declarative ScenarioSpecs the experiment
// registry expands to: the flags assemble one spec and hand it to the
// internal/exp interpreter, so a coregapctl run is bit-identical to the
// corresponding trial inside benchsuite.
//
// Usage:
//
//	coregapctl -mode gapped -workload coremark -cores 8 -vcpus 7 -work 500ms
//	coregapctl -mode shared -workload iozone -record 65536
//	coregapctl -mode busywait -workload coremark -cores 16
//	coregapctl -workload openloop -rate 100000,250000,500000   # rate sweep, one pooled context
//	coregapctl -list
//	coregapctl -exp table3
//	coregapctl -workload ipibench -trace trace.json    # view in Perfetto
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"coregap/internal/exp"
	"coregap/internal/guest"
	"coregap/internal/obs"
	"coregap/internal/sim"
	"coregap/internal/trace"
	"coregap/internal/vmm"
)

var (
	mode     = flag.String("mode", "gapped", "gapped | shared | nodeleg | busywait | busywait-deleg")
	workload = flag.String("workload", "coremark", "coremark | coremarkpro | iozone | ipibench | kbuild | netpipe | redis | openloop")
	cores    = flag.Int("cores", 8, "physical cores on the node")
	vcpus    = flag.Int("vcpus", 0, "guest vCPUs (default: cores-1 gapped, cores shared)")
	work     = flag.Duration("work", 500*time.Millisecond, "compute per vCPU (coremark)")
	record   = flag.Int("record", 64<<10, "record size in bytes (iozone)")
	totalIO  = flag.Int64("total", 64<<20, "total bytes (iozone)")
	jobs     = flag.Int("jobs", 100, "compile jobs (kbuild)")
	rounds   = flag.Int("rounds", 200, "round trips (ipibench, netpipe)")
	msgBytes = flag.Int("bytes", 1024, "message/request size (netpipe, redis)")
	rate     = flag.String("rate", "50000", "offered request rate in req/s; comma-separated rates run as a sweep in one pooled context (openloop)")
	clients  = flag.Int("clients", 50, "connection pool size (openloop)")
	arrival  = flag.String("arrival", "poisson", "poisson | bursty (openloop)")
	metwin   = flag.Duration("metwin", 10*time.Millisecond, "windowed-metrics width (openloop)")
	seed     = flag.Uint64("seed", 1, "simulation seed")
	expName  = flag.String("exp", "", "run a registered experiment by name instead of a single scenario")
	list     = flag.Bool("list", false, "list the registered experiments and exit")
	parallel = flag.Int("parallel", 0, "worker goroutines for -exp (0 = GOMAXPROCS)")
	traceOut = flag.String("trace", "", "arm sim-time tracing and write a Chrome trace-event JSON here (Perfetto-viewable)")
	counters = flag.Bool("counters", false, "print the trial's engine counter bank")
	memstats = flag.Bool("memstats", false, "print Go runtime allocation totals after the run (for harness memory tracking)")
	verbose  = flag.Bool("v", false, "dump the full metric set")
)

// parseRates parses the -rate flag: one or more positive req/s values,
// comma-separated.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q (want positive req/s)", part)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

func main() {
	flag.Parse()

	if *list {
		for _, name := range exp.Names() {
			e, _ := exp.Lookup(name)
			fmt.Printf("%-14s %s\n", name, e.Title)
			if e.Desc != "" {
				fmt.Printf("%-14s   %s\n", "", e.Desc)
			}
		}
		return
	}
	if *expName != "" {
		runExperiment(*expName)
		return
	}

	cfg, err := exp.ParseConfig(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
		os.Exit(2)
	}

	n := *vcpus
	if n == 0 {
		n = *cores
		if cfg != exp.ConfigBaseline {
			n--
		}
	}

	rates, err := parseRates(*rate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
		os.Exit(2)
	}
	if len(rates) > 1 && *workload != "openloop" {
		fmt.Fprintf(os.Stderr, "coregapctl: -rate sweeps apply to -workload openloop only\n")
		os.Exit(2)
	}

	w := exp.Workload{VCPUs: n}
	switch *workload {
	case "coremark":
		w.Kind, w.Work = exp.WLCoreMark, sim.Duration(work.Nanoseconds())
	case "coremarkpro":
		w.Kind, w.Work = exp.WLCoreMarkPro, sim.Duration(work.Nanoseconds())
	case "iozone":
		w.Kind, w.Bytes, w.Total = exp.WLIOzone, *record, *totalIO
	case "ipibench":
		w.Kind, w.Rounds = exp.WLIPIBench, *rounds
	case "kbuild":
		w.Kind, w.Jobs = exp.WLKBuild, *jobs
	case "netpipe":
		w.Kind, w.Dev, w.Bytes, w.Rounds = exp.WLNetPIPE, guest.SRIOVNet, *msgBytes, *rounds
	case "redis":
		w.Kind, w.Dev, w.Op, w.Clients, w.Bytes, w.Window =
			exp.WLRedis, guest.SRIOVNet, guest.OpGet, 50, *msgBytes, 500*sim.Millisecond
	case "openloop":
		kind := vmm.ArrivalPoisson
		switch *arrival {
		case "poisson":
		case "bursty":
			kind = vmm.ArrivalBursty
		default:
			fmt.Fprintf(os.Stderr, "unknown arrival process %q (poisson | bursty)\n", *arrival)
			os.Exit(2)
		}
		w.Kind, w.Dev, w.Op, w.Clients, w.Bytes, w.Window =
			exp.WLOpenLoop, guest.SRIOVNet, guest.OpSet, *clients, *msgBytes, 250*sim.Millisecond
		w.Rate, w.Arrival = rates[0], kind
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}

	spec := exp.ScenarioSpec{
		ID:       *workload,
		Config:   cfg,
		Cores:    *cores,
		Workload: w,
		Seed:     *seed,
	}
	if w.Kind == exp.WLOpenLoop {
		spec.MetricsWindow = sim.Duration(metwin.Nanoseconds())
	}
	spec.Trace = *traceOut != ""

	if len(rates) > 1 {
		// A rate sweep runs one trial per offered rate inside a single
		// pooled context, so each rate reuses the warmed engine, machine
		// and metric set instead of rebuilding them.
		if spec.Trace {
			fmt.Fprintf(os.Stderr, "coregapctl: -trace captures a single run; drop it or pick one -rate\n")
			os.Exit(2)
		}
		ctx := exp.NewTrialContext()
		for i, r := range rates {
			spec.Workload.Rate = r
			spec.ID = fmt.Sprintf("%s@%gkrps", *workload, r/1000)
			trial, err := exp.ExecuteIn(ctx, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
				os.Exit(1)
			}
			if i > 0 {
				fmt.Println()
			}
			printTrial(spec, trial)
		}
		printMemStats()
		return
	}

	trial, err := exp.Execute(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
		os.Exit(1)
	}

	printTrial(spec, trial)
	if *traceOut != "" {
		if err := writeTrace(*traceOut, spec.ID, trial); err != nil {
			fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events -> %s\n", len(trial.TraceEvents), *traceOut)
	}
	printMemStats()
}

// printTrial renders one trial: the scenario header, sorted metric
// values and labels, deterministic metadata, any windowed-latency
// logs, and — under -counters — the engine counter bank. Shared by the
// single-scenario path and the -rate sweep.
func printTrial(spec exp.ScenarioSpec, trial exp.Trial) {
	fmt.Printf("config=%s workload=%s cores=%d vcpus=%d seed=%d\n",
		spec.Config, spec.ID, spec.Cores, spec.Workload.VCPUs, spec.Seed)
	keys := make([]string, 0, len(trial.Values))
	for k := range trial.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := trial.Values[k]
		if strings.HasSuffix(k, ".ns") || k == "ns" {
			fmt.Printf("  %-20s %v\n", k, sim.Duration(v))
		} else {
			fmt.Printf("  %-20s %.3f\n", k, v)
		}
	}
	for k, labels := range trial.Labels {
		fmt.Printf("  %-20s %s\n", k, strings.Join(labels, ", "))
	}
	fmt.Printf("  %s\n", trial.Meta)
	if len(trial.Windows) > 0 {
		wnames := make([]string, 0, len(trial.Windows))
		for name := range trial.Windows {
			wnames = append(wnames, name)
		}
		sort.Strings(wnames)
		for _, name := range wnames {
			wl := trace.NewWindowLog(name, "per-window latency", spec.MetricsWindow)
			wl.Add(name, trial.Windows[name])
			fmt.Println()
			fmt.Print(wl.String())
		}
	}
	if *counters {
		cnames := make([]string, 0, len(trial.Counters))
		for name := range trial.Counters {
			cnames = append(cnames, name)
		}
		sort.Strings(cnames)
		fmt.Println("engine counters:")
		for _, name := range cnames {
			fmt.Printf("  %-24s %d\n", name, trial.Counters[name])
		}
	}
	if *verbose && trial.Metrics != nil {
		fmt.Println()
		fmt.Print(trial.Metrics.String())
	}
}

// printMemStats reports the process's cumulative Go allocation totals
// under -memstats — the hook scripts/bench.sh uses to show that harness
// memory grows sublinearly with offered rate.
func printMemStats() {
	if !*memstats {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("memstats: total_alloc_bytes=%d heap_alloc_bytes=%d sys_bytes=%d mallocs=%d\n",
		ms.TotalAlloc, ms.HeapAlloc, ms.Sys, ms.Mallocs)
}

// writeTrace exports the trial's captured events as Chrome trace JSON.
func writeTrace(path, id string, trial exp.Trial) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.ChromeTrace(f, "coregap "+id, trial.TraceEvents); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}

// runExperiment executes one registered experiment, like a focused
// benchsuite invocation.
func runExperiment(name string) {
	rep, err := exp.Run(name, exp.Profile{Seed: *seed}, exp.NewRunner(*parallel))
	if err != nil {
		fmt.Fprintf(os.Stderr, "coregapctl: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("──── %s ────\n", rep.Title)
	for i, a := range rep.Artifacts {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(a.Item.String())
	}
	for _, l := range rep.Lines {
		fmt.Print(l)
		if !strings.HasSuffix(l, "\n") {
			fmt.Println()
		}
	}
	if *verbose {
		for _, m := range rep.Metas() {
			fmt.Printf("  %s\n", m)
		}
	}
}
