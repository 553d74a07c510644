package host

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"coregap/internal/gic"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/sched.golden from the current kernel")

// schedRun drives one kernel and records what a scheduler change could
// move: every completed work item as thread@time/core, in completion
// order, and each thread's CPU time and switch count at the end.
type schedRun struct {
	eng     *sim.Engine
	k       *Kernel
	threads []*Thread
	out     strings.Builder
}

func newSchedRun(cores int, seed uint64) *schedRun {
	eng := sim.NewEngine(seed)
	m := hw.NewMachine(eng, hw.DefaultConfig(cores))
	return &schedRun{eng: eng, k: NewKernel(m, gic.NewDistributor(m), trace.NewSet())}
}

func (r *schedRun) thread(name string, class Class, pin hw.CoreID) *Thread {
	t := r.k.NewThread(name, class, pin)
	r.threads = append(r.threads, t)
	return t
}

// submit queues work on t; then, if set, runs after the completion is
// recorded.
func (r *schedRun) submit(t *Thread, work sim.Duration, then func()) {
	r.k.Submit(t, "w", work, func() {
		fmt.Fprintf(&r.out, " %s@%d/%d", t.Name(), r.eng.Now(), t.Core())
		if then != nil {
			then()
		}
	})
}

func (r *schedRun) at(at sim.Time, fn func()) { r.eng.At(at, "op", fn) }

func (r *schedRun) result() string {
	r.eng.Run()
	for _, t := range r.threads {
		fmt.Fprintf(&r.out, " | %s cpu=%d sw=%d", t.Name(), t.CPUTime(), t.ContextSwitches())
	}
	return r.out.String()
}

// schedEdgeCases force the ties a quantum deadline can take part in, on
// one core with a 1000 ns quantum: the normal thread a is dispatched at
// 0, so its deadline is 1000, and b waits behind it to show whether a
// was preempted.
var schedEdgeCases = []struct {
	name string
	run  func(r *schedRun)
}{
	{"slice-ends-at-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 1000, nil)
		r.submit(b, 1000, nil)
	}},
	{"slice-ends-past-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 1001, nil)
		r.submit(b, 1000, nil)
	}},
	{"slice-ends-before-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 999, nil)
		r.submit(b, 1000, nil)
	}},
	{"steal-ends-at-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 500, nil) })
	}},
	{"steal-ends-1ns-before-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 499, nil) })
	}},
	{"steal-moves-completion-onto-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 200, nil) })
	}},
	{"steal-keeps-completion-before-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 199, nil) })
	}},
	{"late-arm-ties-earlier-fifo-wake", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		rt := r.thread("rt", ClassFIFO, 0)
		r.at(1000, func() { r.submit(rt, 100, nil) })
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
	}},
	{"late-arm-ties-later-fifo-wake", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		rt := r.thread("rt", ClassFIFO, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() {
			r.k.StealCPU(0, 300, func() { r.at(1000, func() { r.submit(rt, 100, nil) }) })
		})
	}},
	{"late-arm-ties-later-submit", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		c := r.thread("c", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() {
			r.k.StealCPU(0, 300, func() { r.at(1000, func() { r.submit(c, 100, nil) }) })
		})
	}},
	{"late-arm-ties-steal", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() {
			r.k.StealCPU(0, 300, func() { r.at(1000, func() { r.k.StealCPU(0, 50, nil) }) })
		})
	}},
	{"quantum-expires-during-steal", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 3000, nil)
		r.submit(b, 1000, nil)
		r.at(900, func() { r.k.StealCPU(0, 200, nil) })
	}},
	{"deadline-passes-during-steal", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(700, func() { r.k.StealCPU(0, 400, nil) })
	}},
	{"nested-steals-across-deadline", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(400, func() { r.k.StealCPU(0, 300, nil) })
		r.at(500, func() { r.k.StealCPU(0, 250, nil) })
		r.at(650, func() { r.k.StealCPU(0, 1, nil) })
	}},
	{"two-steals-one-slice", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(200, func() { r.k.StealCPU(0, 100, nil) })
		r.at(600, func() { r.k.StealCPU(0, 150, nil) })
	}},
	{"kill-during-late-armed-slice", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
		r.at(900, func() { r.k.Kill(a) })
	}},
	{"kill-during-steal", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
		r.at(600, func() { r.k.Kill(a) })
	}},
	{"fifo-wake-during-steal", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		rt := r.thread("rt", ClassFIFO, 0)
		r.submit(a, 800, nil)
		r.submit(b, 1000, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
		r.at(600, func() { r.submit(rt, 100, nil) })
	}},
	{"set-quantum-mid-slice", func(r *schedRun) {
		a, b := r.thread("a", ClassNormal, 0), r.thread("b", ClassNormal, 0)
		r.submit(a, 1500, nil)
		r.submit(b, 1500, nil)
		r.at(300, func() { r.k.SetQuantum(200) })
	}},
	{"offline-during-late-armed-slice", func(r *schedRun) {
		a := r.thread("a", ClassNormal, hw.NoCore)
		r.submit(a, 800, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
		r.at(900, func() { _ = r.k.OfflineCore(0, nil) })
	}},
	{"offline-during-steal", func(r *schedRun) {
		a := r.thread("a", ClassNormal, hw.NoCore)
		r.submit(a, 800, nil)
		r.at(500, func() { r.k.StealCPU(0, 300, nil) })
		r.at(600, func() { _ = r.k.OfflineCore(0, nil) })
		r.at(700, func() { _ = r.k.OnlineCore(0) })
	}},
}

// Random sequences draw every duration from a small grid around the
// quanta, so slice ends, steal ends and deadlines often coincide.
var (
	schedQuanta = []sim.Duration{500, 1000, 2000}
	schedWorks  = []sim.Duration{1, 250, 499, 500, 501, 750, 999, 1000, 1001, 1500, 2000, 2001, 3000, 4500}
	schedCosts  = []sim.Duration{1, 50, 100, 250, 300, 499, 500, 501, 1000}
	schedSkews  = []sim.Duration{0, 0, 0, -1, 1}
)

// randomSchedRun builds a random operation sequence on one to three
// cores: submits (some chaining a further operation from their
// completion, so the operation lands behind events queued since), IRQ
// steals that often nest, FIFO wakes, kills, hotplug and quantum changes.
func randomSchedRun(seed uint64) string {
	rng := sim.NewSource(seed)
	cores := 1 + rng.Intn(3)
	r := newSchedRun(cores, seed)
	r.k.SetQuantum(schedQuanta[rng.Intn(len(schedQuanta))])
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		class := ClassNormal
		if rng.Intn(4) == 0 {
			class = ClassFIFO
		}
		pin := hw.NoCore
		if rng.Intn(2) == 0 {
			pin = hw.CoreID(rng.Intn(cores))
		}
		r.thread(fmt.Sprintf("%c", 'a'+i), class, pin)
	}
	var op func()
	op = func() {
		switch x := rng.Intn(100); {
		case x < 45:
			var then func()
			if rng.Intn(3) == 0 {
				delay := 50*sim.Duration(rng.Intn(40)) + schedSkews[rng.Intn(len(schedSkews))]
				then = func() { r.eng.After(delay, "op", op) }
			}
			r.submit(r.threads[rng.Intn(len(r.threads))], schedWorks[rng.Intn(len(schedWorks))], then)
		case x < 70:
			r.k.StealCPU(hw.CoreID(rng.Intn(cores)), schedCosts[rng.Intn(len(schedCosts))], nil)
		case x < 74:
			r.k.Kill(r.threads[rng.Intn(len(r.threads))])
		case x < 82:
			_ = r.k.OfflineCore(hw.CoreID(rng.Intn(cores)), nil)
		case x < 92:
			_ = r.k.OnlineCore(hw.CoreID(rng.Intn(cores)))
		default:
			r.k.SetQuantum(schedQuanta[rng.Intn(len(schedQuanta))])
		}
	}
	for i := 0; i < 60; i++ {
		at := sim.Time(50*sim.Duration(rng.Intn(300)) + 50 + schedSkews[rng.Intn(len(schedSkews))])
		r.at(at, op)
	}
	return r.result()
}

// schedGolden renders every edge case and random sequence, one per line.
func schedGolden() string {
	var b strings.Builder
	for _, c := range schedEdgeCases {
		r := newSchedRun(2, 1)
		r.k.SetQuantum(1000)
		c.run(r)
		fmt.Fprintf(&b, "%s:%s\n", c.name, r.result())
	}
	for seed := uint64(1); seed <= 200; seed++ {
		fmt.Fprintf(&b, "random-%d:%s\n", seed, randomSchedRun(seed))
	}
	return b.String()
}

// TestSchedulerGolden is the scheduler's differential test: the edge
// cases and random sequences above must reproduce, line for line, what
// an eager-quantum kernel recorded in testdata/sched.golden — every
// completion's time, core and order, and each thread's CPU time and
// context switches.
func TestSchedulerGolden(t *testing.T) {
	const path = "testdata/sched.golden"
	got := schedGolden()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}
