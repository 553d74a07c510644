#!/bin/sh
# bench.sh — regenerate BENCH_8.json, the perf trajectory record for
# this repo.
#
# Quick mode (default, used by `make bench` / `make check`):
#   - runs the internal/sim engine microbenchmarks (ns/op, allocs/op),
#     including the empirical-delta replays (ScheduleShortDelta,
#     TimerChurn) of the heap event queue, plus the internal/vmm
#     open-loop arrival benchmark
#   - times a fixed benchsuite smoke run (-exp table3 -seed 42 -parallel 1)
#   - times the open-loop headline: coregapctl serving 500 krps offered
#     into a 1 Mi-connection pool (openloop_500k_s), and records
#     coregapctl -memstats allocation totals at 100 krps vs 500 krps —
#     the 5x-rate allocation ratio is the sublinear-memory evidence
#   - records runner self-metrics (per-worker trials/steals/busy/idle,
#     allocation deltas) from a table3 -parallel 2 -selfmetrics run
#   - guards the headline serial keys (smoke wall_s, all_parallel1_s,
#     openloop_parallel4_s, openloop_500k_s) against the previous
#     BENCH_N.json: >10% slower prints a LOUD regression warning
#   - stamps provenance (git SHA, go version, GOOS/GOARCH)
#   - preserves the "suite" section of an existing BENCH_8.json,
#     seeding it from BENCH_7.json (or BENCH_6.json) the first time
#
# Full mode (BENCH_FULL=1, used when re-baselining a perf PR):
#   - re-measures the legacy 11-experiment suite (the same set every
#     earlier BENCH_N.json timed, now spelled out via comma-separated
#     -exp because -exp all grew the open-loop experiments) at
#     -parallel 1, 2, 4 and 8, plus a -fresh serial run as the
#     construction-cost baseline
#   - times the open-loop experiments separately (openloop_parallel4_s)
#     so their cost is visible without muddying the legacy trajectory
#   - computes per-N parallel efficiency, eff(N) = p1 / (N * pN), and
#     rewrites the "suite" section
#   - prints a LOUD warning when any parallel run is slower than serial:
#     that is negative scaling, the regression PR 5 removed.
#
# The committed baseline_* numbers are earlier measurements of the same
# commands on the same class of host; they are inputs to the trajectory,
# not re-measured here.
set -e
cd "$(dirname "$0")/.."

BENCH_OUT=${BENCH_OUT:-BENCH_8.json}
# The experiment set every earlier BENCH_N.json called "all": the
# paper's eleven artifacts, pre-open-loop. Keep timing exactly this set
# under the all_parallel{N}_s keys so the trajectory stays comparable.
LEGACY="table2,table3,table4,table5,fig3,fig6,fig7,fig8,fig9,tdx,fig10"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "bench: sim microbenchmarks..."
go test -bench 'BenchmarkSchedule$|BenchmarkCancel$|BenchmarkChurn$|BenchmarkScheduleShortDelta$|BenchmarkTimerChurn$' \
    -benchmem -count=1 -run '^$' ./internal/sim >"$TMP/micro.txt"
echo "bench: vmm open-loop arrival microbenchmark..."
go test -bench 'BenchmarkOpenLoopArrivals$' \
    -benchmem -count=1 -run '^$' ./internal/vmm >>"$TMP/micro.txt"

go build -o "$TMP/benchsuite" ./cmd/benchsuite
go build -o "$TMP/coregapctl" ./cmd/coregapctl

walltime() {
    # POSIX wall-clock timing with subsecond resolution via awk.
    start=$(date +%s%N)
    "$@" >/dev/null
    end=$(date +%s%N)
    awk "BEGIN{printf \"%.2f\", ($end - $start) / 1e9}"
}

echo "bench: smoke run (table3, serial)..."
SMOKE_S=$(walltime "$TMP/benchsuite" -exp table3 -seed 42 -parallel 1)

echo "bench: open-loop headline (coregapctl, 500 krps, 1Mi connections)..."
OPENLOOP_500K_S=$(walltime "$TMP/coregapctl" -workload openloop -rate 500000 -clients 1048576)
# Allocation totals at 1x and 5x the offered rate, same pool size: with
# the zero-alloc request lifecycle the ratio stays far below the 5x a
# per-request-allocating generator would show.
"$TMP/coregapctl" -workload openloop -rate 100000 -clients 1048576 -memstats \
    | grep '^memstats:' >"$TMP/mem100k.txt"
"$TMP/coregapctl" -workload openloop -rate 500000 -clients 1048576 -memstats \
    | grep '^memstats:' >"$TMP/mem500k.txt"

echo "bench: runner self-metrics (table3, -parallel 2)..."
"$TMP/benchsuite" -exp table3 -seed 42 -parallel 2 \
    -selfmetrics "$TMP/selfmetrics.json" >/dev/null

GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
GO_VERSION=$(go version | awk '{print $3 "/" $4}')

SUITE_P1_S=""
SUITE_P2_S=""
SUITE_P4_S=""
SUITE_P8_S=""
SUITE_FRESH_P1_S=""
OPENLOOP_P4_S=""
if [ "${BENCH_FULL:-0}" = "1" ]; then
    echo "bench: legacy suite, fresh (pooling off), -parallel 1..."
    SUITE_FRESH_P1_S=$(walltime "$TMP/benchsuite" -exp "$LEGACY" -seed 42 -parallel 1 -fresh)
    for n in 1 2 4 8; do
        echo "bench: legacy suite, pooled, -parallel $n..."
        eval "SUITE_P${n}_S=\$(walltime \"$TMP/benchsuite\" -exp \"$LEGACY\" -seed 42 -parallel $n)"
    done
    echo "bench: open-loop experiments, pooled, -parallel 4..."
    OPENLOOP_P4_S=$(walltime "$TMP/benchsuite" -exp openloop,openloop-burst -seed 42 -parallel 4)
fi

MICRO="$TMP/micro.txt" SMOKE_S="$SMOKE_S" \
OPENLOOP_500K_S="$OPENLOOP_500K_S" \
MEM100K="$TMP/mem100k.txt" MEM500K="$TMP/mem500k.txt" \
SELFMETRICS="$TMP/selfmetrics.json" \
GIT_SHA="$GIT_SHA" GO_VERSION="$GO_VERSION" \
SUITE_P1_S="$SUITE_P1_S" SUITE_P2_S="$SUITE_P2_S" \
SUITE_P4_S="$SUITE_P4_S" SUITE_P8_S="$SUITE_P8_S" \
SUITE_FRESH_P1_S="$SUITE_FRESH_P1_S" OPENLOOP_P4_S="$OPENLOOP_P4_S" \
BENCH_OUT="$BENCH_OUT" \
python3 - <<'PYEOF'
import json, os, re

out = os.environ["BENCH_OUT"]
micro = {}
for line in open(os.environ["MICRO"]):
    # Custom metrics (e.g. BenchmarkOpenLoopArrivals' reqs/op) may sit
    # between ns/op and -benchmem's B/op column.
    m = re.match(r"(Benchmark\w+)\S*\s+\d+\s+([\d.]+) ns/op\s+(?:[\d.]+ \S+\s+)*?(\d+) B/op\s+(\d+) allocs/op", line)
    if m:
        micro[m.group(1)] = {
            "ns_per_op": float(m.group(2)),
            "bytes_per_op": int(m.group(3)),
            "allocs_per_op": int(m.group(4)),
        }


def read_memstats(path):
    try:
        line = open(path).read()
    except Exception:
        return {}
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}


prev = {}
if os.path.exists(out):
    try:
        prev = json.load(open(out))
    except Exception:
        prev = {}
else:
    # First run after a BENCH_N -> BENCH_N+1 switch: carry the suite
    # trajectory forward so the history stays in one place.
    for older in ("BENCH_7.json", "BENCH_6.json"):
        if os.path.exists(older):
            try:
                prev = json.load(open(older))
            except Exception:
                prev = {}
            break

# Snapshot the previous headline numbers before `suite` below starts
# mutating the same dict in place — these feed the regression guard.
prev_headline = {"smoke_wall_s": prev.get("smoke", {}).get("wall_s")}
for k in ("all_parallel1_s", "openloop_parallel4_s", "openloop_500k_s"):
    prev_headline[k] = prev.get("suite", {}).get(k)

suite = prev.get("suite", {})
# Earlier engines measured with the identical commands on the same host
# class: pre-PR-3 (before the zero-allocation hot path), PR 3 (before
# per-worker context pooling; parallel 4 was *slower* than serial), and
# PR 5 (pooled contexts, pre-windowed-metrics).
suite.setdefault("baseline_pre_pr3", {"all_parallel1_s": 55.9, "all_parallel8_s": 61.7})
suite.setdefault("baseline_pr3", {"all_parallel1_s": 24.66, "all_parallel4_s": 27.2})
suite.setdefault("baseline_pr5", {"all_parallel1_s": 27.09, "all_parallel2_s": 25.82,
                                  "all_parallel4_s": 26.46, "all_parallel8_s": 28.88,
                                  "all_fresh_parallel1_s": 26.06})
# PR 6 (windowed-metrics pipeline): the suite as measured just before the
# tracing/counters instrumentation landed.
suite.setdefault("baseline_pr6", {"all_parallel1_s": 24.74, "all_parallel2_s": 26.52,
                                  "all_parallel4_s": 27.49, "all_parallel8_s": 27.96,
                                  "all_fresh_parallel1_s": 25.55})
# The PR 7 re-baseline ran on a visibly slower host session than the
# baseline_pr6 numbers; an interleaved pre/post A-B showed the tracing
# branch + counter increments inside noise, so the deltas vs
# baseline_pr6 are host drift, not instrumentation cost.
suite.setdefault("baseline_pr7", {"all_parallel1_s": 30.30, "all_parallel2_s": 28.34,
                                  "all_parallel4_s": 28.89, "all_parallel8_s": 30.83,
                                  "all_fresh_parallel1_s": 36.75,
                                  "openloop_parallel4_s": 9.6})
suite.setdefault("note_pr7", "suite deltas vs baseline_pr6 are host drift; "
                 "interleaved pre/post A-B showed no instrumentation overhead")
suite.setdefault("note_pr8", "lazy uarch fills + boot-snapshot forking collapsed the "
                 "serial suite ~15x vs baseline_pr7")
suite.setdefault("note_pr10", "batched arrival generation + a free-listed request "
                 "arena made the open-loop hot path allocation-free, and streamed "
                 "trial reduction releases window buffers as workers finish; "
                 "openloop_500k_s and the 100k-vs-500k allocation ratio are the "
                 "headline evidence (5x offered rate, near-1x allocated bytes)")

walls = {}
for n in (1, 2, 4, 8):
    v = os.environ.get(f"SUITE_P{n}_S", "")
    if v:
        walls[n] = float(v)
        suite[f"all_parallel{n}_s"] = walls[n]
if os.environ.get("SUITE_FRESH_P1_S", ""):
    suite["all_fresh_parallel1_s"] = float(os.environ["SUITE_FRESH_P1_S"])
if os.environ.get("OPENLOOP_P4_S", ""):
    suite["openloop_parallel4_s"] = float(os.environ["OPENLOOP_P4_S"])
if os.environ.get("OPENLOOP_500K_S", ""):
    suite["openloop_500k_s"] = float(os.environ["OPENLOOP_500K_S"])
mem100k = read_memstats(os.environ.get("MEM100K", ""))
mem500k = read_memstats(os.environ.get("MEM500K", ""))
if mem100k.get("total_alloc_bytes") and mem500k.get("total_alloc_bytes"):
    ratio = mem500k["total_alloc_bytes"] / mem100k["total_alloc_bytes"]
    suite["openloop_total_alloc_bytes_100k"] = mem100k["total_alloc_bytes"]
    suite["openloop_total_alloc_bytes_500k"] = mem500k["total_alloc_bytes"]
    suite["openloop_alloc_ratio_500k_over_100k"] = round(ratio, 3)
    if ratio >= 5.0:
        print("=" * 72)
        print("bench: WARNING: OPEN-LOOP MEMORY SCALES WITH OFFERED RATE")
        print(f"bench: WARNING:   5x the rate allocated {ratio:.2f}x the bytes;")
        print("bench: WARNING:   the zero-alloc request lifecycle has regressed")
        print("=" * 72)
    else:
        print(f"bench: open-loop allocation at 5x rate: {ratio:.2f}x bytes (sublinear)")

if walls and 1 in walls:
    p1 = walls[1]
    eff = {str(n): round(p1 / (n * pn), 3) for n, pn in sorted(walls.items())}
    suite["parallel_efficiency"] = eff
    slower = {n: pn for n, pn in walls.items() if n > 1 and pn > p1}
    if slower:
        print("=" * 72)
        print("bench: WARNING: NEGATIVE PARALLEL SCALING")
        for n, pn in sorted(slower.items()):
            print(f"bench: WARNING:   -parallel {n} took {pn:.2f}s, "
                  f"SLOWER than serial ({p1:.2f}s)")
        print("bench: WARNING: adding workers is making the suite slower;")
        print("bench: WARNING: see parallel_efficiency in", out)
        print("=" * 72)
    else:
        for n, pn in sorted(walls.items()):
            print(f"bench: pooled -parallel {n}: {pn:.2f}s "
                  f"(efficiency {p1 / (n * pn):.2f})")

# Regression guard: every headline serial key measured this run is
# compared against the previous BENCH_N.json. Wall-clock numbers wander
# with host load, so the gate is deliberately loose — but >10% slower
# on the same host class is a real slowdown and gets a loud warning,
# not a silent rewrite of the trajectory.
guard = [("smoke wall_s", prev_headline["smoke_wall_s"], float(os.environ["SMOKE_S"]))]
measured = {
    "all_parallel1_s": walls.get(1),
    "openloop_parallel4_s": (float(os.environ["OPENLOOP_P4_S"])
                             if os.environ.get("OPENLOOP_P4_S") else None),
    "openloop_500k_s": (float(os.environ["OPENLOOP_500K_S"])
                        if os.environ.get("OPENLOOP_500K_S") else None),
}
for key in ("all_parallel1_s", "openloop_parallel4_s", "openloop_500k_s"):
    guard.append((key, prev_headline[key], measured[key]))
regressed = [(k, old, new) for k, old, new in guard
             if old and new and new > 1.10 * old]
if regressed:
    print("=" * 72)
    print("bench: WARNING: HEADLINE WALL-CLOCK REGRESSION (>10% vs previous)")
    for k, old, new in regressed:
        print(f"bench: WARNING:   {k}: {new:.2f}s vs {old:.2f}s previously "
              f"({new / old:.2f}x)")
    print("bench: WARNING: if the host class changed, re-baseline and say so;")
    print("bench: WARNING: otherwise this PR made the suite slower")
    print("=" * 72)
else:
    checked = [k for k, old, new in guard if old and new]
    if checked:
        print(f"bench: headline keys within 10% of previous: {', '.join(checked)}")

runner = {}
try:
    runner = json.load(open(os.environ["SELFMETRICS"]))
except Exception:
    pass

doc = {
    "pr": 10,
    "provenance": {
        "git_sha": os.environ.get("GIT_SHA", "unknown"),
        "go_version": os.environ.get("GO_VERSION", "unknown"),
    },
    # Efficiency is relative to the measuring host; on a single-CPU
    # host every eff(N>1) is bounded by 1/N and the scaling warning is
    # expected.
    "host_cpus": os.cpu_count(),
    "commands": {
        "micro": "go test -bench 'BenchmarkSchedule$|BenchmarkCancel$|BenchmarkChurn$|BenchmarkScheduleShortDelta$|BenchmarkTimerChurn$' -benchmem ./internal/sim + go test -bench BenchmarkOpenLoopArrivals$ -benchmem ./internal/vmm",
        "smoke": "benchsuite -exp table3 -seed 42 -parallel 1",
        "openloop_500k": "coregapctl -workload openloop -rate {100000,500000} -clients 1048576 [-memstats]",
        "suite": "benchsuite -exp <legacy 11 experiments> -seed 42 -parallel {1,2,4,8} [+ -fresh at -parallel 1]",
        "openloop": "benchsuite -exp openloop,openloop-burst -seed 42 -parallel 4",
        "runner": "benchsuite -exp table3 -seed 42 -parallel 2 -selfmetrics <file>",
    },
    "microbench": micro,
    "smoke": {"exp": "table3", "wall_s": float(os.environ["SMOKE_S"])},
    "runner": runner,
    "suite": suite,
}
json.dump(doc, open(out, "w"), indent=2, sort_keys=True)
open(out, "a").write("\n")
print(f"bench: wrote {out}")
PYEOF

# The gate half of `make bench`: the steady-state schedule/fire path —
# tracing off and on, including Engine.Reset
# reuse — must stay allocation-free, the streaming recorder's record
# path must stay allocation-free once its pages are faulted in, the
# open-loop generator's steady state (arrivals, delivery, response
# matching, Sent/Backlog probes) must stay allocation-free at 500 krps,
# the paper path's exit → host → re-entry loop must stay allocation-free
# in every execution mode, and a pooled trial must stay under its
# absolute byte ceiling.
go test -run 'TestZeroAlloc|TestEngineResetZeroAlloc' -count=1 ./internal/sim >/dev/null
go test -run 'TestRecorderZeroAlloc|TestWindowedZeroAlloc|TestHistReset' -count=1 ./internal/trace >/dev/null
go test -run 'TestZeroAllocOpenLoad' -count=1 ./internal/vmm >/dev/null
go test -run 'TestZeroAllocExitCycle' -count=1 ./internal/core >/dev/null
go test -run 'TestTrialAllocs' -count=1 ./internal/exp >/dev/null
echo "bench: zero-alloc and pooled-trial allocation gates pass"
