package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(field int, v uint64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(v)
}

func (b *pb) msg(field int, m []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(m)))
	b.Write(m)
}

func (b *pb) packed(field int, vs ...uint64) {
	var p pb
	for _, v := range vs {
		p.varint(v)
	}
	b.msg(field, p.Bytes())
}

// synthProfile encodes a profile with the given stacks (function names,
// innermost first), each as one sample of the given count and labelled
// with experiment exps[i] when non-empty. Adjacent pairs of a stack that
// appear in inline are encoded as one location with two line entries,
// as the Go profiler does for inlined calls.
func synthProfile(t *testing.T, stacks [][]string, counts []uint64, exps []string, inline map[string]bool) []byte {
	t.Helper()
	strs := []string{""}
	index := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = uint64(len(strs))
		strs = append(strs, s)
		return index[s]
	}
	var out pb
	// sample_type: samples/count, cpu/nanoseconds
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.uint(1, intern(vt[0]))
		m.uint(2, intern(vt[1]))
		out.msg(1, m.Bytes())
	}
	funcs := map[string]uint64{}
	var nextLoc uint64
	for i, stack := range stacks {
		var locIDs []uint64
		for j := 0; j < len(stack); j++ {
			names := []string{stack[j]}
			if j+1 < len(stack) && inline[stack[j]] {
				names = append(names, stack[j+1])
				j++
			}
			nextLoc++
			var loc pb
			loc.uint(1, nextLoc)
			for _, n := range names {
				id, ok := funcs[n]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[n] = id
					var fn pb
					fn.uint(1, id)
					fn.uint(2, intern(n))
					out.msg(5, fn.Bytes())
				}
				var line pb
				line.uint(1, id)
				line.uint(2, 7)
				loc.msg(4, line.Bytes())
			}
			out.msg(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
		}
		var s pb
		s.packed(1, locIDs...)
		s.packed(2, counts[i], counts[i]*10_000_000)
		if exps[i] != "" {
			var lb pb
			lb.uint(1, intern("experiment"))
			lb.uint(2, intern(exps[i]))
			s.msg(3, lb.Bytes())
		}
		out.msg(2, s.Bytes())
	}
	for _, s := range strs {
		out.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// µarch leaf under the engine: uarch self, uarch on stack.
		{"coregap/internal/uarch.(*CoreState).Touch", "coregap/internal/hw.(*Core).Exec", "coregap/internal/sim.(*Engine).Run", "main.runPass"},
		// The RNG jump µarch calls into sim: sim self, uarch on stack.
		{"coregap/internal/sim.(*Source).Skip", "coregap/internal/uarch.(*CoreState).fill", "coregap/internal/sim.(*Engine).Run"},
		// malloc under the host scheduler: runtime.
		{"runtime.mallocgc", "runtime.newobject", "coregap/internal/host.(*Kernel).startCurrent"},
		// Swiss-table map internals count as runtime too.
		{"internal/runtime/maps.(*Map).getWithKeySmall", "coregap/internal/core.(*VCPU).countExit"},
		// Standard library under trace: charged to trace.
		{"slices.pdqsort", "sort.Sort", "coregap/internal/trace.(*Hist).Percentile"},
		// A background GC worker: runtime.
		{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
		// The benchmark's own hashing and the profiler: bench.
		{"crypto/sha256.block", "main.runPass", "main.main", "runtime.main"},
		{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"},
		// Other program packages and unclassified code: other.
		{"coregap/internal/vulncat.Catalogue"},
		{"syscall.Syscall6"},
		// Inlined vmm frame inside an exp frame: the innermost wins.
		{"coregap/internal/vmm.(*OpenLoadGen).deliver", "coregap/internal/exp.(*Trial).runOpenLoop"},
	}
	counts := []uint64{40, 19, 10, 3, 2, 5, 4, 1, 1, 1, 14}
	exps := []string{"fig6", "fig6", "table5", "table5", "", "", "", "", "fig3", "", "openloop"}
	data := synthProfile(t, stacks, counts, exps, map[string]bool{"coregap/internal/vmm.(*OpenLoadGen).deliver": true})

	samples, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if s.count != int64(counts[i]) || len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] {
			t.Fatalf("sample %d decoded as %+v, want stack %v count %d", i, s, stacks[i], counts[i])
		}
		if s.labels["experiment"] != exps[i] {
			t.Fatalf("sample %d label %q, want %q", i, s.labels["experiment"], exps[i])
		}
	}

	f := newFold()
	f.add(samples)
	if f.total != 100 {
		t.Fatalf("total %d, want 100", f.total)
	}
	want := map[string]int64{
		"uarch": 40, "sim": 19, "runtime": 10 + 3 + 5, "trace": 2,
		"bench": 4 + 1, "other": 1 + 1, "vmm": 14,
	}
	var sum float64
	for _, l := range layers {
		if f.self[l] != want[l] {
			t.Errorf("%s self = %d, want %d", l, f.self[l], want[l])
		}
		sum += f.share(f.self[l])
	}
	for l := range f.self {
		if _, ok := want[l]; !ok && f.self[l] != 0 {
			t.Errorf("unexpected layer %q", l)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	if f.uarchCum != 59 {
		t.Errorf("uarch cumulative = %d, want 59", f.uarchCum)
	}
	if f.byExperiment["fig6"] != 59 || f.byExperiment["table5"] != 13 || f.byExperiment["openloop"] != 14 {
		t.Errorf("per-experiment samples %v", f.byExperiment)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var b pb
	b.varint(2<<3 | 2)
	b.varint(50) // a sample message longer than the buffer
	if _, err := parseProfile(b.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
