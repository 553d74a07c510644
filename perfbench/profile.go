package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU-profile sample reduced to what the ledger folds:
// its call stack as function names, innermost first, the number of
// profiler ticks it stands for, and its pprof labels.
type sample struct {
	stack  []string
	count  int64
	labels map[string]string
}

// parseProfile decodes a (possibly gzipped) pprof profile.proto into
// samples. It reads only the fields the fold needs: samples with their
// location ids, values and string labels; locations with their line
// entries (inlined frames, innermost first); functions with their names;
// and the string table. The first sample value is the count.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		count  int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strtab  []string
		decoder = pbReader{data}
	)
	for !decoder.done() {
		field, wire, err := decoder.key()
		if err != nil {
			return nil, err
		}
		switch {
		case field == 2 && wire == 2: // Sample
			msg, err := decoder.bytes()
			if err != nil {
				return nil, err
			}
			var s rawSample
			var values []uint64
			err = msg.each(func(f int, w int, r *pbReader) error {
				switch {
				case f == 1:
					return r.uints(w, &s.locs)
				case f == 2:
					return r.uints(w, &values)
				case f == 3 && w == 2:
					lb, err := r.bytes()
					if err != nil {
						return err
					}
					var kv [2]int64
					err = lb.each(func(f int, w int, r *pbReader) error {
						if (f == 1 || f == 2) && w == 0 {
							v, err := r.varint()
							kv[f-1] = int64(v)
							return err
						}
						return r.skip(w)
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return r.skip(w)
			})
			if err != nil {
				return nil, err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			raws = append(raws, s)
		case field == 4 && wire == 2: // Location
			msg, err := decoder.bytes()
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			err = msg.each(func(f int, w int, r *pbReader) error {
				switch {
				case f == 1 && w == 0:
					v, err := r.varint()
					id = v
					return err
				case f == 4 && w == 2:
					line, err := r.bytes()
					if err != nil {
						return err
					}
					return line.each(func(f int, w int, r *pbReader) error {
						if f == 1 && w == 0 {
							v, err := r.varint()
							fns = append(fns, v)
							return err
						}
						return r.skip(w)
					})
				}
				return r.skip(w)
			})
			if err != nil {
				return nil, err
			}
			locs[id] = fns
		case field == 5 && wire == 2: // Function
			msg, err := decoder.bytes()
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			err = msg.each(func(f int, w int, r *pbReader) error {
				if (f == 1 || f == 2) && w == 0 {
					v, err := r.varint()
					if f == 1 {
						id = v
					} else {
						name = int64(v)
					}
					return err
				}
				return r.skip(w)
			})
			if err != nil {
				return nil, err
			}
			funcs[id] = name
		case field == 6 && wire == 2: // string_table
			b, err := decoder.bytes()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(b.buf))
		default:
			if err := decoder.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	samples := make([]sample, len(raws))
	for i, r := range raws {
		s := sample{count: r.count}
		for _, l := range r.locs {
			for _, fn := range locs[l] {
				s.stack = append(s.stack, str(funcs[fn]))
			}
		}
		for _, kv := range r.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		samples[i] = s
	}
	return samples, nil
}

// pbReader walks protobuf wire format.
type pbReader struct{ buf []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) done() bool { return len(r.buf) == 0 }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for i := 0; i < len(r.buf) && i < 10; i++ {
		b := r.buf[i]
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			r.buf = r.buf[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (r *pbReader) key() (field, wire int, err error) {
	k, err := r.varint()
	return int(k >> 3), int(k & 7), err
}

func (r *pbReader) bytes() (*pbReader, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, errTruncated
	}
	b := &pbReader{r.buf[:n]}
	r.buf = r.buf[n:]
	return b, nil
}

func (r *pbReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := r.varint()
		return err
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.buf) < n {
			return errTruncated
		}
		r.buf = r.buf[n:]
		return nil
	case 2:
		_, err := r.bytes()
		return err
	}
	return fmt.Errorf("profile: unsupported wire type %d", wire)
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func (r *pbReader) uints(wire int, dst *[]uint64) error {
	if wire == 0 {
		v, err := r.varint()
		*dst = append(*dst, v)
		return err
	}
	if wire != 2 {
		return r.skip(wire)
	}
	packed, err := r.bytes()
	if err != nil {
		return err
	}
	for !packed.done() {
		v, err := packed.varint()
		if err != nil {
			return err
		}
		*dst = append(*dst, v)
	}
	return nil
}

// each calls f for every field of the message, which must consume it.
func (r *pbReader) each(f func(field, wire int, r *pbReader) error) error {
	for !r.done() {
		field, wire, err := r.key()
		if err != nil {
			return err
		}
		if err := f(field, wire, r); err != nil {
			return err
		}
	}
	return nil
}

// Layers of the self-time fold. Every coregap/internal package named
// here is its own layer; the program's other packages (attestation,
// export, planner, vulnerability catalogue) fold into "other" with code
// outside the program that no classified frame encloses.
var layers = []string{
	"sim", "uarch", "hw", "host", "core", "rmm", "granule", "gic", "rpc", "smc",
	"vmm", "guest", "trace", "attack", "exp", "runtime", "bench", "other",
}

// frameLayer classifies one frame: a coregap/internal package's layer,
// "runtime" for the Go runtime (malloc, GC, memmove, maps, scheduler),
// "bench" for the benchmark's own code and the profiler, and "" for
// anything else (the rest of the standard library), which is charged to
// the innermost classified frame that called it.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "coregap/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."):
		return "bench"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// fold is a profile folded into the ledger's layers.
type fold struct {
	total int64
	// self counts samples by the layer of their innermost classified
	// frame; every sample lands in exactly one layer.
	self map[string]int64
	// uarchCum counts samples with a uarch frame anywhere on the stack.
	uarchCum int64
	// byExperiment counts samples by their "experiment" pprof label.
	byExperiment map[string]int64
}

func newFold() *fold {
	return &fold{self: map[string]int64{}, byExperiment: map[string]int64{}}
}

func (f *fold) add(samples []sample) {
	for _, s := range samples {
		f.total += s.count
		layer := "other"
		for _, fn := range s.stack {
			if l := frameLayer(fn); l != "" {
				layer = l
				break
			}
		}
		f.self[layer] += s.count
		for _, fn := range s.stack {
			if frameLayer(fn) == "uarch" {
				f.uarchCum += s.count
				break
			}
		}
		if e := s.labels["experiment"]; e != "" {
			f.byExperiment[e] += s.count
		}
	}
}

func (f *fold) share(n int64) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(n) / float64(f.total)
}
