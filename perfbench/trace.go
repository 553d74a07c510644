package main

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"coregap/internal/exp"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the runtime/metrics counters the benchmark reads.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// span is one call from the benchmark into the exp layer: spec
// generation, context construction, one ExecuteIn, or reduction. Its
// parent is the pass that made the call.
type span struct {
	Name       string `json:"name"`
	Pass       int    `json:"pass"`
	Experiment string `json:"experiment,omitempty"`
	Config     string `json:"config,omitempty"`
	Trial      string `json:"trial,omitempty"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	CPUNS      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	AllocObjs  uint64 `json:"alloc_objects"`
	Events     uint64 `json:"events,omitempty"`
}

// tracer records spans for the traced passes of a run. A nil tracer
// records nothing and only runs the wrapped calls, which is how
// untraced passes go.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
}

// span runs f and records it as a span named name.
func (t *tracer) span(name, experiment string, f func()) {
	if t == nil {
		f()
		return
	}
	t.record(span{Name: name, Experiment: experiment}, func() uint64 { f(); return 0 })
}

// execute runs one trial call f, which reports the events the trial
// fired. Traced, the call carries pprof labels naming the workload,
// experiment and config, so profile samples can be split by them.
func (t *tracer) execute(workload, experiment string, spec exp.ScenarioSpec, f func() uint64) {
	if t == nil {
		f()
		return
	}
	s := span{Name: "execute", Experiment: experiment, Config: string(spec.Config), Trial: spec.ID}
	labels := pprof.Labels("workload", workload, "experiment", experiment, "config", string(spec.Config))
	t.record(s, func() (events uint64) {
		pprof.Do(context.Background(), labels, func(context.Context) { events = f() })
		return events
	})
}

func (t *tracer) record(s span, f func() uint64) {
	rt0, cpu0, start := readRuntime(), cpuTime(), time.Now()
	s.Events = f()
	end, cpu1, rt := time.Now(), cpuTime(), readRuntime().sub(rt0)
	s.Pass = t.pass
	s.StartNS, s.EndNS = start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()
	s.CPUNS = (cpu1 - cpu0).Nanoseconds()
	s.AllocBytes, s.AllocObjs = rt.allocBytes, rt.allocObjects
	t.spans = append(t.spans, s)
}
