package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesMatchPatternAndBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	check := func(name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("name %q does not match %s", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		label string
		code  []metric
		file  []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd, bf.EndToEnd},
		{"per_layer", perLayer, bf.PerLayer},
	} {
		if len(set.code) != len(set.file) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", set.label, len(set.file), len(set.code))
		}
		for i, m := range set.code {
			check(m.name)
			if !unitPattern.MatchString(m.unit) {
				t.Errorf("unit %q of %s does not match %s", m.unit, m.name, unitPattern)
			}
			if set.file[i].Name != m.name || set.file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]",
					set.label, i, set.file[i].Name, set.file[i].Unit, m.name, m.unit)
			}
		}
	}
}
