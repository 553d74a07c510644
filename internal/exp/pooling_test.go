package exp

import (
	"runtime"
	"testing"

	"coregap/internal/sim"
)

// poolingTestExperiments is the experiment set the pooled-vs-fresh
// equivalence test sweeps. Under -short only the cheap experiments run;
// the full set covers every workload kind the dispatcher knows,
// including the node-booting sweeps and the attack battery.
func poolingTestExperiments(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		// openloop rides in the short set deliberately: it is the one
		// experiment whose report includes per-window tails, so this is
		// where windowed-metrics determinism under pooling is enforced.
		// openloop-hi rides along for the same reason at a rate an order
		// of magnitude past service capacity: streamed reduction and the
		// batched arrival path must stay deterministic in deep collapse.
		return []string{"table2", "table3", "fig3", "tdx", "openloop", "openloop-hi"}
	}
	return Names()
}

// TestPooledExecuteDeterminism is the acceptance test of context
// pooling: for every experiment, a fresh-construction serial run, a
// pooled serial run and a pooled 8-worker run must reduce to
// byte-identical reports (artifact CSVs, headline lines, per-trial
// values and labels; Meta.Wall excluded). This is exactly the
// benchsuite `-exp all -seed 42` tree compared across `-parallel 1/8`
// and `-fresh`/pooled.
func TestPooledExecuteDeterminism(t *testing.T) {
	p := Profile{Seed: 42}
	for _, name := range poolingTestExperiments(t) {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		freshRunner := NewRunner(1)
		freshRunner.Fresh = true
		fresh, err := freshRunner.RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		pooled1, err := NewRunner(1).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s pooled serial: %v", name, err)
		}
		pooled8, err := NewRunner(8).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s pooled parallel: %v", name, err)
		}
		// The pooled runs above execute with boot-snapshot forking at its
		// default (on); a serial run with forking disabled pins down that
		// the fork path, not luck, is what matches.
		SetSnapshotForking(false)
		pooledOff, err := NewRunner(1).RunExperiment(e, p)
		SetSnapshotForking(true)
		if err != nil {
			t.Fatalf("%s pooled no-snapshot: %v", name, err)
		}
		want := renderReport(t, fresh)
		if got := renderReport(t, pooled1); got != want {
			t.Errorf("%s: pooled serial differs from fresh\nfresh:\n%s\npooled:\n%s", name, want, got)
		}
		if got := renderReport(t, pooled8); got != want {
			t.Errorf("%s: pooled 8-worker differs from fresh\nfresh:\n%s\npooled:\n%s", name, want, got)
		}
		if got := renderReport(t, pooledOff); got != want {
			t.Errorf("%s: pooled no-snapshot run differs from fresh\nfresh:\n%s\npooled:\n%s", name, want, got)
		}
	}
}

// TestPooledContextReuseOrderIndependence: a context that has already
// executed a large trial must produce byte-identical results for a
// small one (and vice versa) — Reset may not leak capacity-dependent
// behaviour, only capacity.
func TestPooledContextReuseOrderIndependence(t *testing.T) {
	small := ScenarioSpec{ID: "small", Config: ConfigGapped, Cores: 4, Seed: 7,
		Workload: Workload{Kind: WLIPIBench, Rounds: 64}}
	big := ScenarioSpec{ID: "big", Config: ConfigGapped, Cores: 8, Seed: 9,
		Workload: Workload{Kind: WLCoreMark, VMs: 2, VCPUs: 2, Work: 20 * sim.Millisecond}}

	ref := func(spec ScenarioSpec) Trial {
		tr, err := Execute(spec)
		if err != nil {
			t.Fatalf("fresh %s: %v", spec.ID, err)
		}
		return tr
	}
	wantSmall, wantBig := ref(small), ref(big)

	ctx := NewTrialContext()
	for i, spec := range []ScenarioSpec{big, small, big, small, small} {
		tr, err := ExecuteIn(ctx, spec)
		if err != nil {
			t.Fatalf("pooled run %d (%s): %v", i, spec.ID, err)
		}
		want := wantSmall
		if spec.ID == "big" {
			want = wantBig
		}
		if got, exp := trialValues(tr), trialValues(want); got != exp {
			t.Errorf("run %d (%s): pooled values diverge after reuse\nfresh:\n%s\npooled:\n%s",
				i, spec.ID, exp, got)
		}
	}
}

// bytesPerRun measures the mean bytes allocated per call of f, in the
// style of testing.AllocsPerRun: one warm-up call, a GC to settle the
// heap, then TotalAlloc deltas over runs calls.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	f()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// pooledTrialBytesCeiling bounds the bytes a steady-state pooled trial
// of TestTrialAllocs' scenario may allocate: its value before the
// granule table became lazy, when the gate was a 5x pooled-vs-fresh
// ratio.
const pooledTrialBytesCeiling = 79_908

// TestTrialAllocs is the allocation gate of the pooling work: a
// steady-state pooled trial allocates only its thin per-trial stack.
// The gate used to be a ratio — pooled at least 5x fewer bytes than
// fresh — because fresh construction paid for a 32-48 MiB eagerly
// allocated granule table. The table is now lazy, fresh trials are
// ~200 KB, and the ratio no longer measures pooling; the gate is an
// absolute ceiling on pooled bytes instead. The allocation *count* must
// still drop below fresh — the substrate's construction allocations
// disappear — but the surviving per-trial object graph (kernel,
// monitor, VMs, bound callbacks) is rebuilt by design, so the count
// gate is directional.
func TestTrialAllocs(t *testing.T) {
	spec := ScenarioSpec{ID: "alloc-gate", Config: ConfigGapped, Cores: 4, Seed: 11,
		Workload: Workload{Kind: WLIPIBench, Rounds: 32}}

	ctx := NewTrialContext()
	// Warm the context: first use grows the heap, source map, granule
	// table and metric maps to their steady-state footprint.
	for i := 0; i < 3; i++ {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	pooledBytes := bytesPerRun(10, func() {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	freshBytes := bytesPerRun(10, func() {
		if _, err := Execute(spec); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := Execute(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes/trial: fresh=%.0f pooled=%.0f (%.0fx); allocs/trial: fresh=%.0f pooled=%.0f (%.1fx)",
		freshBytes, pooledBytes, freshBytes/pooledBytes, fresh, pooled, fresh/pooled)
	if pooledBytes > pooledTrialBytesCeiling {
		t.Errorf("pooled trial allocates %.0f bytes; want <= %d", pooledBytes, pooledTrialBytesCeiling)
	}
	if pooledBytes >= freshBytes {
		t.Errorf("pooled trial allocates %.0f bytes, no fewer than fresh %.0f", pooledBytes, freshBytes)
	}
	if pooled >= fresh {
		t.Errorf("pooled trial allocation count %.0f did not drop below fresh %.0f", pooled, fresh)
	}
}

// TestFreshRunnerBypassesPooling: Metrics stays populated on the fresh
// path (cmd/coregapctl -v depends on it) and nil under pooling, where
// the set belongs to the worker context and is recycled by the next
// trial.
func TestFreshRunnerBypassesPooling(t *testing.T) {
	spec := ScenarioSpec{ID: "metrics", Config: ConfigGapped, Cores: 4, Seed: 3,
		Workload: Workload{Kind: WLIPIBench, Rounds: 16}}
	tr, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics == nil {
		t.Error("fresh Execute must populate Trial.Metrics")
	}
	tr, err = ExecuteIn(NewTrialContext(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics != nil {
		t.Error("pooled ExecuteIn must leave Trial.Metrics nil (set is recycled)")
	}
}
