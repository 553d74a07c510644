package main

import (
	"strings"
	"testing"

	"coregap/internal/exp"
)

func fakePass(index int, seed uint64, digest string, trials int, failures ...string) *pass {
	return &pass{index: index, seed: seed, digest: digest, trials: trials, failures: failures,
		counters: map[string]uint64{"hw.ipis": 7}}
}

func TestJudgeCountsDigestMismatchAsFailure(t *testing.T) {
	passes := []*pass{
		fakePass(0, 42, "aaaa", 10),
		fakePass(1, 7, "bbbb", 10),
		fakePass(2, 42, "aaaa", 10),
		fakePass(3, 7, "cccc", 10), // repeat of seed 7 with another digest
	}
	v := judge(passes)
	if v.attempted != 42 || v.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 42 and 1", v.attempted, v.failed)
	}
	if len(v.problems) != 1 || !strings.Contains(v.problems[0], "pass 3 (seed 7) differs from pass 1") {
		t.Fatalf("problems %q", v.problems)
	}
}

func TestJudgeCountsCounterMismatchAndTrialErrors(t *testing.T) {
	a, b := fakePass(0, 42, "aaaa", 10), fakePass(1, 42, "aaaa", 10, "fig8/x: stuck", "fig8/y: stuck")
	b.counters["hw.ipis"] = 8
	v := judge([]*pass{a, b})
	if v.attempted != 21 || v.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 21 and 3", v.attempted, v.failed)
	}
}

func TestJudgeAcceptsIdenticalRepeats(t *testing.T) {
	v := judge([]*pass{fakePass(0, 42, "aaaa", 5), fakePass(1, 42, "aaaa", 5)})
	if v.failed != 0 || v.attempted != 11 || len(v.problems) != 0 {
		t.Fatalf("verdict %+v", v)
	}
}

func TestCheckTrialAttestation(t *testing.T) {
	gapped := exp.Trial{Spec: exp.ScenarioSpec{Config: exp.ConfigGapped}, Values: map[string]float64{"attest.coregapped": 0}}
	if checkTrial(gapped) == nil {
		t.Fatal("gapped trial attesting a shared core passed the check")
	}
	gapped.Values["attest.coregapped"] = 1
	if err := checkTrial(gapped); err != nil {
		t.Fatal(err)
	}
}

func TestPassSeed(t *testing.T) {
	if passSeed(42, 0) != 42 {
		t.Fatal("entry 0 of the seed cycle must be the workload seed")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		s := passSeed(42, i)
		if seen[s] || s != passSeed(42, i) {
			t.Fatalf("seed cycle entry %d = %d repeats or is unstable", i, s)
		}
		seen[s] = true
	}
}

func TestWorkloadsResolve(t *testing.T) {
	for _, w := range workloads {
		if _, err := w.experiments(); err != nil {
			t.Fatal(err)
		}
	}
}
