package main

import (
	"math"
	"testing"
)

func TestRelErr(t *testing.T) {
	for _, c := range []struct{ measured, paper, want float64 }{
		{2757.6, 2757.6, 0},
		{366, 390, 24.0 / 390},
		{14.5, 11.6, 2.9 / 11.6},
		{0, 43.9, 1},
	} {
		if got := relErr(c.measured, c.paper); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relErr(%v, %v) = %v, want %v", c.measured, c.paper, got, c.want)
		}
	}
}

func TestPaperErrorsMeanOverSeedsAndRefs(t *testing.T) {
	refs := []paperRef{
		{"w", "table3", "deleg", "vipi.mean.ns", 1e-3, 2.0, "us", "a"},
		{"w", "table2", "sync", "ns", 1, 100, "ns", "b"},
	}
	p1 := &pass{seed: 1, values: map[string]float64{
		valueKey("table3", "deleg", "vipi.mean.ns"): 2100, // 2.1 us
		valueKey("table2", "sync", "ns"):            90,
	}}
	p2 := &pass{seed: 2, values: map[string]float64{
		valueKey("table3", "deleg", "vipi.mean.ns"): 2300, // 2.3 us
		valueKey("table2", "sync", "ns"):            130,
	}}
	errs, mean, err := paperErrors(refs, []*pass{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	// Means over the seeds: 2.2 us (10% off) and 110 ns (10% off).
	if math.Abs(errs[0].measured-2.2) > 1e-12 || math.Abs(errs[1].measured-110) > 1e-12 {
		t.Fatalf("measured %v, %v", errs[0].measured, errs[1].measured)
	}
	if math.Abs(errs[0].err-0.1) > 1e-12 || math.Abs(errs[1].err-0.1) > 1e-12 || math.Abs(mean-0.1) > 1e-12 {
		t.Fatalf("errors %v %v mean %v, want 0.1 each", errs[0].err, errs[1].err, mean)
	}
}

func TestPaperErrorsMissingValue(t *testing.T) {
	refs := []paperRef{{"w", "table2", "async", "ns", 1, 2757.6, "ns", "a"}}
	if _, _, err := paperErrors(refs, []*pass{{seed: 1, values: map[string]float64{}}}); err == nil {
		t.Fatal("a reference no pass produced must be an error")
	}
}

func TestOpenloopIsUnvalidated(t *testing.T) {
	if refs := refsFor("openloop"); len(refs) != 0 {
		t.Fatalf("openloop has %d paper references; the paper reports closed-loop results only", len(refs))
	}
	for _, w := range []string{"paper-long", "paper-sweep"} {
		if len(refsFor(w)) == 0 {
			t.Errorf("%s has no paper references", w)
		}
	}
	for _, r := range paperRefs {
		w, ok := lookupWorkload(r.workload)
		if !ok {
			t.Fatalf("reference %q names unknown workload %q", r.source, r.workload)
		}
		found := false
		for _, e := range w.exps {
			found = found || e == r.experiment
		}
		if !found || r.paper == 0 || r.source == "" {
			t.Errorf("reference %+v does not belong to its workload or lacks a value or source", r)
		}
	}
}
