package main

import (
	"fmt"
	"math"
)

// paperRef is one scalar the paper publishes, and the trial value of the
// quick profile that reproduces it.
type paperRef struct {
	workload   string
	experiment string
	trial      string  // ScenarioSpec.ID
	value      string  // key in Trial.Values
	scale      float64 // multiplies the trial value into the paper's unit
	paper      float64
	unit       string
	source     string
}

// paperRefs is the reference table behind paper_rel_err. The openloop
// workload has no entry: the paper reports closed-loop results only, so
// the open-loop experiments are unvalidated and get no error figure.
var paperRefs = []paperRef{
	{"paper-sweep", "table2", "async", "ns", 1, 2757.6, "ns", "Table 2, core-gapped asynchronous null RMM call"},
	{"paper-sweep", "table2", "sync", "ns", 1, 257.7, "ns", "Table 2, core-gapped synchronous null RMM call"},
	{"paper-sweep", "table3", "nodeleg", "vipi.mean.ns", 1e-3, 43.9, "us", "Table 3, core-gapped vIPI without delegation"},
	{"paper-sweep", "table3", "deleg", "vipi.mean.ns", 1e-3, 2.22, "us", "Table 3, core-gapped vIPI with delegation"},
	{"paper-sweep", "table3", "shared", "vipi.mean.ns", 1e-3, 3.85, "us", "Table 3, shared-core vIPI"},
	{"paper-long", "table4", "nodeleg", "exits.interrupt", 1, 33954, "exits", "Table 4, interrupt-related exits without delegation"},
	{"paper-long", "table4", "deleg", "exits.interrupt", 1, 390, "exits", "Table 4, interrupt-related exits with delegation"},
	{"paper-long", "table4", "nodeleg", "exits.total", 1, 37712, "exits", "Table 4, total exits without delegation"},
	{"paper-long", "table4", "deleg", "exits.total", 1, 1324, "exits", "Table 4, total exits with delegation"},
	{"paper-long", "table5", "SET/shared", "krps", 1, 51.7, "krps", "Table 5, Redis SET shared-core throughput"},
	{"paper-long", "table5", "SET/gapped", "krps", 1, 56.2, "krps", "Table 5, Redis SET core-gapped throughput"},
	{"paper-long", "table5", "GET/shared", "krps", 1, 48.8, "krps", "Table 5, Redis GET shared-core throughput"},
	{"paper-long", "table5", "GET/gapped", "krps", 1, 55.3, "krps", "Table 5, Redis GET core-gapped throughput"},
	{"paper-long", "table5", "LRANGE 100/shared", "krps", 1, 11.6, "krps", "Table 5, Redis LRANGE shared-core throughput"},
	{"paper-long", "table5", "LRANGE 100/gapped", "krps", 1, 14.5, "krps", "Table 5, Redis LRANGE core-gapped throughput"},
	{"paper-long", "fig6", "core-gapped@16", "runtorun.mean.ns", 1e-3, 26.18, "us", "§5.2 / Fig. 6, core-gapped run-to-run latency"},
}

// refsFor lists the references of one workload.
func refsFor(workload string) []paperRef {
	var refs []paperRef
	for _, r := range paperRefs {
		if r.workload == workload {
			refs = append(refs, r)
		}
	}
	return refs
}

// relErr is |measured - paper| / paper.
func relErr(measured, paper float64) float64 {
	return math.Abs(measured-paper) / math.Abs(paper)
}

// paperError is one reference compared against the mean of its measured
// values over the seeds a run covered.
type paperError struct {
	ref      paperRef
	measured float64
	err      float64
}

// paperErrors compares each reference with the mean of its value over
// the given passes (one per distinct seed), and returns the per-reference
// errors with their mean: the workload's paper_rel_err. A reference no
// pass produced is an error — the quick profile no longer has the trial
// the table points at.
func paperErrors(refs []paperRef, passes []*pass) ([]paperError, float64, error) {
	if len(refs) == 0 {
		return nil, 0, nil
	}
	out := make([]paperError, len(refs))
	var sum float64
	for i, r := range refs {
		var total float64
		for _, p := range passes {
			v, ok := p.values[valueKey(r.experiment, r.trial, r.value)]
			if !ok {
				return nil, 0, fmt.Errorf("paper reference %s/%s/%s: no such trial value at seed %d",
					r.experiment, r.trial, r.value, p.seed)
			}
			total += v * r.scale
		}
		m := total / float64(len(passes))
		out[i] = paperError{ref: r, measured: m, err: relErr(m, r.paper)}
		sum += out[i].err
	}
	return out, sum / float64(len(refs)), nil
}
