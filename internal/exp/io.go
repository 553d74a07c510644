package exp

import (
	"fmt"

	"coregap/internal/guest"
	"coregap/internal/trace"
)

// This file declares the I/O experiments (Figs. 8–10) as spec generators
// plus pure reducers.

// ---------------------------------------------------------------- Fig. 8

// Fig8Result carries the NetPIPE latency and throughput figures.
type Fig8Result struct {
	Latency    *trace.Figure // one-way latency (µs) vs message size
	Throughput *trace.Figure // Gbit/s vs message size
}

// fig8Specs sweeps NetPIPE message sizes for virtio and SR-IOV
// interfaces, shared-core versus core-gapped. The 4-core node is a small
// VM: 1 server vCPU is what NetPIPE exercises.
func fig8Specs(sizes []int, rounds int, seed uint64) []ScenarioSpec {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
	}
	if rounds <= 0 {
		rounds = 40
	}
	configs := []struct {
		series string
		cfg    Config
		dev    guest.DeviceClass
	}{
		{"virtio shared-core", ConfigBaseline, guest.VirtioNet},
		{"virtio core-gapped", ConfigGapped, guest.VirtioNet},
		{"SR-IOV shared-core", ConfigBaseline, guest.SRIOVNet},
		{"SR-IOV core-gapped", ConfigGapped, guest.SRIOVNet},
	}
	var specs []ScenarioSpec
	for _, c := range configs {
		for _, size := range sizes {
			specs = append(specs, ScenarioSpec{
				ID:     fmt.Sprintf("%s@%d", c.series, size),
				Config: c.cfg, Cores: 4, Seed: seed,
				Workload: Workload{Kind: WLNetPIPE, Dev: c.dev, Bytes: size, Rounds: rounds},
				Series:   c.series, X: float64(size),
			})
		}
	}
	return specs
}

func reduceFig8(trials []Trial) Fig8Result {
	lat := trace.NewFigure("Figure 8", "NetPIPE TCP results", "message bytes", "latency us (one-way)")
	tput := trace.NewFigure("Figure 8b", "NetPIPE TCP throughput", "message bytes", "Gbit/s")
	for _, t := range trials {
		rtt := t.Dur("rtt.ns")
		lat.Series(t.Spec.Series).Add(t.Spec.X, rtt.Micros()/2)
		gbps := t.Spec.X * 8 / rtt.Seconds() / 1e9
		tput.Series(t.Spec.Series).Add(t.Spec.X, gbps)
	}
	return Fig8Result{Latency: lat, Throughput: tput}
}

// RunFig8 reproduces the NetPIPE figure: latency and throughput versus
// message size for virtio and SR-IOV interfaces, shared-core versus
// core-gapped.
func RunFig8(sizes []int, rounds int, seed uint64) Fig8Result {
	return reduceFig8(run(fig8Specs(sizes, rounds, seed)))
}

// ---------------------------------------------------------------- Fig. 9

// fig9Specs sweeps IOzone record sizes: synchronous O_DIRECT read/write
// throughput to a virtio block device.
func fig9Specs(records []int, seed uint64) []ScenarioSpec {
	if len(records) == 0 {
		records = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	}
	var specs []ScenarioSpec
	for _, mode := range []struct {
		label string
		cfg   Config
	}{
		{"shared-core", ConfigBaseline},
		{"core-gapped", ConfigGapped},
	} {
		for _, write := range []bool{false, true} {
			op := "read"
			if write {
				op = "write"
			}
			for _, rec := range records {
				specs = append(specs, ScenarioSpec{
					ID:     fmt.Sprintf("%s %s@%d", mode.label, op, rec),
					Config: mode.cfg, Cores: 4, Seed: seed,
					Workload: Workload{Kind: WLIOzone, Bytes: rec, Write: write, Total: int64(rec) * 32},
					Series:   mode.label + " " + op, X: float64(rec),
				})
			}
		}
	}
	return specs
}

func reduceFig9(trials []Trial) *trace.Figure {
	fig := trace.NewFigure("Figure 9", "IOzone sync I/O throughput (virtio-blk, O_DIRECT)",
		"record bytes", "MiB/s")
	for _, t := range trials {
		fig.Series(t.Spec.Series).Add(t.Spec.X, t.V("mibs"))
	}
	return fig
}

// RunFig9 reproduces the IOzone figure: synchronous O_DIRECT read/write
// throughput to a virtio block device versus record size.
func RunFig9(records []int, seed uint64) *trace.Figure {
	return reduceFig9(run(fig9Specs(records, seed)))
}

// --------------------------------------------------------------- Fig. 10

// fig10Specs sweeps the kernel-build core counts, with the build tree on
// a virtio disk. Core-gapped CVMs run with one fewer vCPU
// (equal-physical-cores accounting).
func fig10Specs(coreCounts []int, jobs int, seed uint64) []ScenarioSpec {
	if len(coreCounts) == 0 {
		coreCounts = []int{2, 4, 8, 16}
	}
	if jobs <= 0 {
		jobs = 300
	}
	var specs []ScenarioSpec
	for _, N := range coreCounts {
		if N < 2 {
			continue
		}
		for _, mode := range []struct {
			series string
			cfg    Config
			vcpus  int
		}{
			{"shared-core", ConfigBaseline, N},
			{"core-gapped", ConfigGapped, N - 1},
		} {
			specs = append(specs, ScenarioSpec{
				ID:     fmt.Sprintf("%s@%d", mode.series, N),
				Config: mode.cfg, Cores: N, Seed: seed,
				Workload: Workload{Kind: WLKBuild, Jobs: jobs, VCPUs: mode.vcpus},
				Series:   mode.series, X: float64(N),
			})
		}
	}
	return specs
}

func reduceFig10(trials []Trial) *trace.Figure {
	fig := trace.NewFigure("Figure 10", "Linux kernel build (virtio disk)",
		"cores", "build time s")
	for _, t := range trials {
		fig.Series(t.Spec.Series).Add(t.Spec.X, t.Dur("build.ns").Seconds())
	}
	return fig
}

// RunFig10 reproduces the kernel-build figure: wall-clock build time
// versus core count.
func RunFig10(coreCounts []int, jobs int, seed uint64) *trace.Figure {
	return reduceFig10(run(fig10Specs(coreCounts, jobs, seed)))
}

// The I/O experiments, registered in paper order by register.go.
var (
	expFig8 = &Experiment{
		Name:  "fig8",
		Desc:  "Runs NetPIPE ping-pong over virtio-net and a passthrough VF across message sizes for the latency/throughput curves.",
		Title: "Figure 8: NetPIPE latency and throughput",
		Paper: "paper: virtio up to 2x latency / 30-70% lower throughput gapped;\n" +
			"       SR-IOV within 10-20 us of baseline, up to 5% higher throughput at large sizes",
		Specs: func(p Profile) []ScenarioSpec {
			sizes, rounds := []int{64, 1024, 16384, 262144, 1 << 20}, 30
			if p.Full {
				sizes = []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
				rounds = 100
			}
			return fig8Specs(sizes, rounds, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceFig8(trials)
			return &Report{Artifacts: []Artifact{
				{Name: "fig8-latency", Item: r.Latency},
				{Name: "fig8-throughput", Item: r.Throughput},
			}}
		},
	}

	expFig9 = &Experiment{
		Name:  "fig9",
		Desc:  "Drives IOzone-style synchronous O_DIRECT I/O over virtio-blk across record sizes.",
		Title: "Figure 9: IOzone sync throughput (virtio-blk)",
		Paper: "paper: core-gapping matches baseline only for large (>10 MiB) I/Os",
		Specs: func(p Profile) []ScenarioSpec {
			recs := []int{4 << 10, 64 << 10, 1 << 20, 16 << 20}
			if p.Full {
				recs = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
			}
			return fig9Specs(recs, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			return &Report{Artifacts: []Artifact{{Name: "fig9", Item: reduceFig9(trials)}}}
		},
	}

	expFig10 = &Experiment{
		Name:  "fig10",
		Desc:  "Builds a parallel kernel-compile workload to compare end-to-end build times across configurations.",
		Title: "Figure 10: Linux kernel build",
		Paper: "paper: comparable scaling despite one fewer vCPU and virtio-disk contention",
		Specs: func(p Profile) []ScenarioSpec {
			cores, jobs := []int{4, 8, 16}, 150
			if p.Full {
				cores, jobs = []int{2, 4, 8, 16}, 400
			}
			return fig10Specs(cores, jobs, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			return &Report{Artifacts: []Artifact{{Name: "fig10", Item: reduceFig10(trials)}}}
		},
	}
)
