#!/usr/bin/env bash
# Builds the Release tree and runs the profiler micro benchmarks into
# BENCH_hotpath.json (google-benchmark JSON; its context records the
# host's cores and, as dcprof_build_type, dcprof's build type), then
# checks two hot-path cost gates. End-to-end wall time of the CLI
# workflow (measure, analyze, what-if, ingest) is perfbench's job:
# `measure_s` and friends in perfbench/run.py, not these micro
# benchmarks. Run from anywhere; paths resolve from the script's own
# location. Usage:
#
#   tools/run_bench.sh [benchmark-filter]
#
# The default filter covers the hot-path suite (CCT insertion, heap-map
# lookup, end-to-end attribution). Pass '' to run everything. A gate
# whose benchmarks the filter leaves out prints NOT RUN and fails the
# script, like a gate that regressed.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-release"
filter="${1-BM_Attribute|BM_Cct|BM_HeapMap|BM_SampleHandler}"
out="$repo/BENCH_hotpath.json"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j --target micro_profiler

# Random interleaving shuffles the repetitions of the repeated
# benchmarks (the pattern-cost pair) across the run so the on/off
# medians sample the same thermal/frequency window.
"$build/bench/micro_profiler" \
    ${filter:+--benchmark_filter="$filter"} \
    --benchmark_enable_random_interleaving=true \
    --benchmark_out="$out" \
    --benchmark_out_format=json

echo
echo "wrote $out"
echo "baseline (pre-optimization) numbers: bench/BENCH_hotpath_baseline.json"

status=0

# Telemetry-cost guard: with telemetry disabled (the default), the sample
# handler must stay within 1% (plus a 1 ns clock-granularity floor) of
# the equivalent pre-telemetry hot path measured in the same run —
# BM_AttributeHotRepeated/fast:1/depth:32 is the identical workload with
# no OBS sites attributed to it historically (see the committed PR
# baselines in git history of BENCH_hotpath.json).
python3 - "$out" <<'EOF' || status=1
import json, sys

doc = json.load(open(sys.argv[1]))
times = {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])}
off = times.get("BM_SampleHandler/telemetry:0")
ref = times.get("BM_AttributeHotRepeated/fast:1/depth:32")
if off is None or ref is None:
    print("telemetry-cost check: NOT RUN (benchmarks not in this run)")
    sys.exit(1)
limit = ref * 1.01 + 1.0
verdict = "OK" if off <= limit else "REGRESSION"
print(f"telemetry-cost check: disabled-telemetry sample handler "
      f"{off:.1f} ns vs hot-path reference {ref:.1f} ns "
      f"(limit {limit:.1f} ns) -> {verdict}")
for mode in (1, 2):
    t = times.get(f"BM_SampleHandler/telemetry:{mode}")
    if t is not None:
        print(f"  telemetry:{mode} = {t:.1f} ns "
              f"({100.0 * (t - ref) / ref:+.1f}% vs reference)")
sys.exit(0 if verdict == "OK" else 1)
EOF

# Pattern-recording guard: the v4 per-sample memory-level stamping and
# per-variable reuse/stride histogram updates must add <= 5% (plus a
# 1 ns clock-granularity floor) to the sample-handling cost —
# BM_SampleHandlerPatterns runs the canonical BM_SampleHandler sample
# with the pattern tables off (patterns:0) and on (patterns:1). The
# striding worst case (BM_SampleHandlerPatternsStride) is reported in
# the JSON but not gated.
python3 - "$out" <<'EOF' || status=1
import json, sys

doc = json.load(open(sys.argv[1]))
times = {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])}
def median(arm):
    # Repetition names gain a /repeats:N infix under
    # --benchmark_enable_random_interleaving.
    for name, t in times.items():
        if name.startswith(f"BM_SampleHandlerPatterns/patterns:{arm}") and \
                name.endswith("_median"):
            return t
    return None

off = median(0)
on = median(1)
if off is None or on is None:
    print("pattern-cost check: NOT RUN (benchmarks not in this run)")
    sys.exit(1)
limit = off * 1.05 + 1.0
verdict = "OK" if on <= limit else "REGRESSION"
print(f"pattern-cost check: sample handler with pattern tables on "
      f"median {on:.1f} ns vs off {off:.1f} ns "
      f"(limit {limit:.1f} ns) -> {verdict}")
sys.exit(0 if verdict == "OK" else 1)
EOF

exit "$status"
