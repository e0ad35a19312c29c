#!/usr/bin/env bash
# Builds the Release tree and runs the profiler micro benchmarks:
#   BENCH_hotpath.json  attribution-hot-path trajectory (micro_profiler)
#   BENCH_ingest.json   fleet-scale continuous ingestion (dcprof_ingestd
#                       over a 10k-shard synthetic corpus): sustained
#                       shards/sec, peak RSS, the ingest-vs-batch
#                       throughput ratio, cores and build type, with
#                       the ratio gated >= 1.0x (the daemon must
#                       not lose to the batch analyzer running the same
#                       fold) with a bounded-RSS sanity gate
# (google-benchmark JSON, except BENCH_ingest.json which dcprof_ingestd
# emits itself). End-to-end wall time of the CLI workflow (measure,
# analyze, what-if, ingest) is perfbench's job: `measure_s` and friends
# in perfbench/run.py, not these micro benchmarks. Run from anywhere;
# paths resolve from the script's own location. Usage:
#
#   tools/run_bench.sh [benchmark-filter]
#
# The default filter covers the hot-path suite (CCT insertion, heap-map
# lookup, end-to-end attribution). Pass '' to run everything.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-release"
filter="${1-BM_Attribute|BM_Cct|BM_HeapMap|BM_SampleHandler}"
out="$repo/BENCH_hotpath.json"
ingest_out="$repo/BENCH_ingest.json"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j --target micro_profiler dcprof_ingestd

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

# Telemetry-cost guard: with telemetry disabled (the default), the sample
# handler must stay within 1% (plus a 1 ns clock-granularity floor) of
# the equivalent pre-telemetry hot path measured in the same run —
# BM_AttributeHotRepeated/fast:1/depth:32 is the identical workload with
# no OBS sites attributed to it historically (see the committed PR
# baselines in git history of BENCH_hotpath.json).
python3 - "$out" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
times = {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])}
off = times.get("BM_SampleHandler/telemetry:0")
ref = times.get("BM_AttributeHotRepeated/fast:1/depth:32")
if off is None or ref is None:
    print("telemetry-cost check: benchmarks not in this run; skipped")
    sys.exit(0)
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

# Fleet-scale ingestion benchmark: pre-generate a 10k-shard synthetic
# corpus, drain it with dcprof_ingestd, and let the daemon time a
# one-shot batch Analyzer::run over the identical corpus. Retirement is
# off so the batch comparison sees the same files, and periodic
# checkpointing is off (one final checkpoint only): the gate compares
# the daemon's fold loop against the batch analyzer's, and a periodic
# checkpoint's serialize+fsync is a durability cost the batch analyzer
# never pays (its cadence is the deployment's loss-window knob, not a
# property of the ingest path). Gates:
#   * sustained ingest throughput >= 1.0x the batch analyzer's (both
#     read and fold each shard through analysis::fold_shard, so the
#     daemon's per-shard bookkeeping must not make it lose);
#   * peak RSS stays bounded — the aggregate plus one transient shard,
#     never proportional to the 10k-shard corpus (<= 512 MiB here, two
#     orders of magnitude under the corpus-resident alternative).
ingest_dir=$(mktemp -d)
trap 'rm -rf "$ingest_dir"' EXIT
"$build/tools/dcprof_ingestd" "$ingest_dir" \
    --simulate-shards 10000 --simulate-only --seed 42
"$build/tools/dcprof_ingestd" "$ingest_dir" \
    --drain --no-claim --checkpoint-every 0 --verify-batch --bench-compare \
    --stats-json "$ingest_out"

echo
echo "wrote $ingest_out"

python3 - "$ingest_out" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
rate = doc["sustained_shards_per_sec"]
batch = doc["batch_shards_per_sec"]
ratio = doc["ingest_vs_batch"]
rss_kb = doc["peak_rss_kb"]
verdict = "OK" if ratio >= 1.0 else "REGRESSION"
print(f"ingest check: sustained {rate:.0f} shards/s vs batch "
      f"{batch:.0f} shards/s ({ratio:.2f}x, gate 1.00x) -> {verdict}")
rss_verdict = "OK" if rss_kb <= 512 * 1024 else "REGRESSION"
print(f"ingest rss check: peak {rss_kb / 1024:.1f} MiB over "
      f"{doc['shards']} shards (gate 512 MiB) -> {rss_verdict}")
sys.exit(0 if (verdict == "OK" and rss_verdict == "OK") else 1)
EOF

# Pattern-recording guard: the v4 per-sample memory-level stamping and
# per-variable reuse/stride histogram updates must add <= 5% (plus a
# 1 ns clock-granularity floor) to the sample-handling cost —
# BM_SampleHandlerPatterns runs the canonical BM_SampleHandler sample
# with the pattern tables off (patterns:0) and on (patterns:1). The
# striding worst case (BM_SampleHandlerPatternsStride) is reported in
# the JSON but not gated.
python3 - "$out" <<'EOF'
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
    print("pattern-cost check: benchmarks not in this run; skipped")
    sys.exit(0)
limit = off * 1.05 + 1.0
verdict = "OK" if on <= limit else "REGRESSION"
print(f"pattern-cost check: sample handler with pattern tables on "
      f"median {on:.1f} ns vs off {off:.1f} ns "
      f"(limit {limit:.1f} ns) -> {verdict}")
sys.exit(0 if verdict == "OK" else 1)
EOF
