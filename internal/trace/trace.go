// Package trace collects measurements from simulation runs: counters,
// latency histograms with percentile queries, and time series suitable for
// regenerating the paper's tables and figures.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"coregap/internal/sim"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name  string
	n     uint64
	epoch uint64
}

// Name reports the counter's name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Hist records duration samples and answers mean/percentile queries. It
// is a streaming log-linear Recorder (see recorder.go): memory is bounded
// and deterministic regardless of sample count, the record path is
// allocation-free at steady state, and only percentile queries see the
// bucket resolution (relative error below 2^-14 — invisible at the 2-4
// significant digits every reproduced artifact prints). Count, Sum, Min,
// Max, Mean and Stddev are exact.
//
// The running sum is kept as int64 nanoseconds. It must not be a
// float64: past ~2^53 accumulated nanoseconds (a few months of simulated
// time, easily reached by long sweeps) float64 addition silently drops
// low-order sample bits, skewing Mean and Sum. Integer accumulation is
// exact over the full int64 range.
type Hist struct {
	name  string
	rec   Recorder
	epoch uint64
}

// Name reports the histogram's name.
func (h *Hist) Name() string { return h.name }

// Observe records one sample.
func (h *Hist) Observe(d sim.Duration) { h.rec.Record(int64(d)) }

// Count reports the number of samples.
func (h *Hist) Count() int { return int(h.rec.Count()) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Hist) Mean() sim.Duration {
	if h.rec.Count() == 0 {
		return 0
	}
	return sim.Duration(float64(h.rec.Sum()) / float64(h.rec.Count()))
}

// Sum reports the exact total of all samples.
func (h *Hist) Sum() sim.Duration { return sim.Duration(h.rec.Sum()) }

// Reset empties the histogram but keeps the recorder's bucket pages, so
// a pooled histogram reused across trials reaches steady state with no
// per-trial allocation.
func (h *Hist) Reset() { h.rec.Reset() }

// Percentile reports the p-th percentile (p in [0,100]) using
// nearest-rank; 0 with no samples. The result is quantized to the
// recorder's bucket resolution (relative error < 2^-14) and clamped into
// [Min, Max]; p <= 0 and p >= 100 are the exact extremes.
func (h *Hist) Percentile(p float64) sim.Duration {
	return sim.Duration(h.rec.Percentile(p))
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Hist) Min() sim.Duration { return sim.Duration(h.rec.Min()) }

// Max reports the largest sample, or 0 with no samples.
func (h *Hist) Max() sim.Duration { return sim.Duration(h.rec.Max()) }

// Stddev reports the sample standard deviation (exact: the recorder
// keeps a 128-bit sum of squares).
func (h *Hist) Stddev() sim.Duration {
	return sim.Duration(h.rec.Stddev())
}

// histPool recycles histograms — and, through Reset, their allocated
// bucket pages — across trials. The parallel experiment runner executes
// tens of thousands of short trials; without pooling each one touches
// fresh recorder pages only to drop them at reduction time.
var histPool = sync.Pool{New: func() any { return new(Hist) }}

// AcquireHist returns an empty histogram from the package pool. Use for
// trial-scoped histograms whose values are extracted before the trial
// ends; pair with ReleaseHist.
func AcquireHist(name string) *Hist {
	h := histPool.Get().(*Hist)
	h.name = name
	return h
}

// ReleaseHist resets h and returns it to the pool. The caller must not
// retain h or any result derived from its internal state afterwards.
func ReleaseHist(h *Hist) {
	if h == nil {
		return
	}
	h.Reset()
	h.name = ""
	histPool.Put(h)
}

// Gauge tracks the latest value of a quantity along with its extremes.
type Gauge struct {
	name     string
	v        float64
	min, max float64
	set      bool
	epoch    uint64
}

// Name reports the gauge's name.
func (g *Gauge) Name() string { return g.name }

// Set records a new value.
func (g *Gauge) Set(v float64) {
	if !g.set {
		g.min, g.max = v, v
		g.set = true
	}
	if v < g.min {
		g.min = v
	}
	if v > g.max {
		g.max = v
	}
	g.v = v
}

// Value reports the most recent value.
func (g *Gauge) Value() float64 { return g.v }

// Min reports the smallest value ever set.
func (g *Gauge) Min() float64 { return g.min }

// Max reports the largest value ever set.
func (g *Gauge) Max() float64 { return g.max }

// Set is a named collection of metrics for one simulation run.
//
// A Set is resettable for reuse across pooled trials: Reset bumps the
// set's epoch, which logically empties it — metrics registered before
// the bump are invisible to Has*/…Names and are revived (zeroed in
// place, sample capacity retained) the next time their name is
// requested. A reset Set is therefore observationally identical to
// NewSet() while reaching steady state with no per-trial allocation.
type Set struct {
	epoch    uint64
	counters map[string]*Counter
	hists    map[string]*Hist
	gauges   map[string]*Gauge

	// winWidth enables windowed recording (see Lat): 0 means whole-run
	// histograms only. It is per-run configuration, cleared by Reset.
	winWidth sim.Duration
	wins     map[string]*Windowed
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Hist),
		gauges:   make(map[string]*Gauge),
		wins:     make(map[string]*Windowed),
	}
}

// Reset logically empties the set: every metric registered so far drops
// out of the visible namespace and will be revived, zeroed but with its
// backing storage intact, on next use. The window width is per-run
// configuration and is cleared too — the next run opts back in with
// SetWindow.
func (s *Set) Reset() {
	s.epoch++
	s.winWidth = 0
}

// SetWindow enables windowed latency recording with the given window
// width (0 disables it). Call once at run setup, before any Lat.
func (s *Set) SetWindow(width sim.Duration) { s.winWidth = width }

// WindowWidth reports the configured window width (0: windows disabled).
func (s *Set) WindowWidth() sim.Duration { return s.winWidth }

// Lat records one latency observation made at simulated time now: always
// into the named whole-run histogram, and — when a window width is set —
// into the like-named windowed metric as well. It is the single record
// site every latency producer (vcpu wake paths, device completions, load
// generators) goes through, so enabling windows never changes whole-run
// artifacts.
func (s *Set) Lat(name string, now sim.Time, d sim.Duration) {
	s.Latency(name).Record(now, d)
}

// Latency is a resolved handle on one named latency metric: the whole-run
// histogram and, when windows are enabled, the windowed metric. Hot
// record sites resolve it once and keep it for the run (it is valid
// until the set's next Reset), so recording skips the name lookups.
type Latency struct {
	h *Hist
	w *Windowed
}

// Latency resolves the named latency metric, creating it exactly as the
// first Lat(name, ...) would.
func (s *Set) Latency(name string) Latency {
	l := Latency{h: s.Hist(name)}
	if s.winWidth > 0 {
		l.w = s.Windowed(name)
	}
	return l
}

// Record is Set.Lat on the resolved metric.
func (l Latency) Record(now sim.Time, d sim.Duration) {
	l.h.Observe(d)
	if l.w != nil {
		l.w.Observe(now, d)
	}
}

// Counter returns the named counter, creating it on first use.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{name: name, epoch: s.epoch}
		s.counters[name] = c
	} else if c.epoch != s.epoch {
		c.epoch = s.epoch
		c.n = 0
	}
	return c
}

// Hist returns the named histogram, creating it on first use.
func (s *Set) Hist(name string) *Hist {
	h, ok := s.hists[name]
	if !ok {
		h = &Hist{name: name, epoch: s.epoch}
		s.hists[name] = h
	} else if h.epoch != s.epoch {
		h.epoch = s.epoch
		h.Reset()
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (s *Set) Gauge(name string) *Gauge {
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{name: name, epoch: s.epoch}
		s.gauges[name] = g
	} else if g.epoch != s.epoch {
		*g = Gauge{name: g.name, epoch: s.epoch}
	}
	return g
}

// Windowed returns the named windowed latency metric, creating it on
// first use with the set's configured window width. Calling it with
// windows disabled is a programming error.
func (s *Set) Windowed(name string) *Windowed {
	if s.winWidth <= 0 {
		panic(fmt.Sprintf("trace: Windowed(%q) with no window width set; call Set.SetWindow first", name))
	}
	w, ok := s.wins[name]
	if !ok {
		w = &Windowed{name: name, width: s.winWidth, epoch: s.epoch}
		s.wins[name] = w
	} else if w.epoch != s.epoch || w.width != s.winWidth {
		w.epoch = s.epoch
		w.width = s.winWidth
		w.reset()
	}
	return w
}

// HasCounter reports whether the named counter exists (without creating it).
func (s *Set) HasCounter(name string) bool {
	c, ok := s.counters[name]
	return ok && c.epoch == s.epoch
}

// CounterNames reports all counter names, sorted.
func (s *Set) CounterNames() []string {
	names := make([]string, 0, len(s.counters))
	for n, c := range s.counters {
		if c.epoch == s.epoch {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// HistNames reports all histogram names, sorted.
func (s *Set) HistNames() []string {
	names := make([]string, 0, len(s.hists))
	for n, h := range s.hists {
		if h.epoch == s.epoch {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// WindowedNames reports all windowed metric names, sorted. Only metrics
// touched since the last Reset are visible, matching the epoch contract
// of every other accessor. A metric revived with a stale width is still
// live — width mismatches are fixed up on access, not here.
func (s *Set) WindowedNames() []string {
	names := make([]string, 0, len(s.wins))
	for n, w := range s.wins {
		if w.epoch == s.epoch {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// String renders the set as a human-readable report.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.CounterNames() {
		fmt.Fprintf(&b, "counter %-40s %d\n", n, s.counters[n].Value())
	}
	for _, n := range s.HistNames() {
		h := s.hists[n]
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
			n, h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
	}
	for _, n := range s.WindowedNames() {
		w := s.wins[n]
		fmt.Fprintf(&b, "windowed %-39s width=%v closed=%d\n", n, w.width, len(w.stats))
	}
	return b.String()
}
