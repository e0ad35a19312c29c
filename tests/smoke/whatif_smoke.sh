#!/usr/bin/env bash
# Causal what-if smoke test: dcprof_measure records streamcluster with 8
# threads, then dcprof_analyze --whatif re-executes the workload with the
# measured team size and must print the exact 8-thread predicted-payoff
# table (ranked, speedups descending) plus a prediction-annotated
# guidance entry, and say on stderr that one simulation answered every
# fix. Also asserts that a rank-0 tid gap, the removed --whatif-threads
# flag and an unknown --whatif workload are errors.
#
#   whatif_smoke.sh <dcprof_measure> <dcprof_analyze>
set -u

measure=$1
analyze=$2

tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "whatif_smoke FAIL: $*" >&2
  exit 1
}

# 8 threads span two sockets of the simulated machine, so the master-
# calloc'd block array draws remote traffic and every fix kind applies.
"$measure" streamcluster "$tmpdir/meas" --threads 8 --period 256 \
    || fail "dcprof_measure exited $?"

"$analyze" "$tmpdir/meas" --whatif streamcluster \
    > "$tmpdir/analyze.out" 2> "$tmpdir/whatif.err" \
    || fail "dcprof_analyze --whatif exited $?"

grep -q "== what-if: predicted payoff (exact re-runs of streamcluster) ==" \
    "$tmpdir/analyze.out" \
    || fail "what-if section heading missing"

# The re-runs use the measurement's 8 threads, not a fixed team size: the
# table is exactly the 8-thread one.
cat > "$tmpdir/want" <<'TABLE'
== what-if: predicted payoff (exact re-runs of streamcluster) ==
fix                                        lat share          cycles   speedup     gain
---------------------------------------------------------------------------------------
block: interleave pages across nodes           85.6%        98953811    1.115x    10.3%
block: promote misses one memory level         85.6%       100871729    1.094x     8.6%
block: make remote accesses local              85.6%       103884933    1.062x     5.8%
point.p: promote misses one memory level        3.7%       108861847    1.013x     1.3%
point.p: interleave pages across nodes          3.7%       109263463    1.010x     1.0%
point.p: make remote accesses local             3.7%       109414555    1.008x     0.8%
(exact virtual speedups: each row re-executes the workload with the fix patched in)
TABLE
sed -n '/^== what-if/,$p' "$tmpdir/analyze.out" > "$tmpdir/got"
diff -u "$tmpdir/want" "$tmpdir/got" \
    || fail "what-if table differs from the 8-thread reference"

# One simulation answers the baseline and all six fixes.
grep -Eq '^what-if: 6 fixes in 1 simulation \([0-9]+\.[0-9] s\)$' \
    "$tmpdir/whatif.err" \
    || fail "stderr lacks 'what-if: 6 fixes in 1 simulation (T s)'"

# At least one ranked row: "<var>: <fix>  <share>%  <cycles>  <s>x  <g>%".
grep -Eq '^block: (make remote accesses local|interleave pages across nodes|promote misses one memory level) +[0-9]+\.[0-9]% +[0-9]+ +[0-9]+\.[0-9]{3}x +-?[0-9]+\.[0-9]%$' \
    "$tmpdir/analyze.out" \
    || fail "no ranked what-if row for the block variable"

grep -q "exact virtual speedups" "$tmpdir/analyze.out" \
    || fail "what-if table footer missing"

# The table is ranked: the speedup column must be non-increasing. (The
# dashes match only inside the what-if section; earlier views have their
# own separator lines.)
awk '/^== what-if/ { sect = 1 }
     sect && /^-+$/ { in_table = 1; next }
     /^\(exact/ { in_table = 0 }
     in_table && NF >= 2 { print $(NF - 1) }' "$tmpdir/analyze.out" \
    | tr -d x > "$tmpdir/speedups"
[ -s "$tmpdir/speedups" ] || fail "could not extract speedup column"
sort -grc "$tmpdir/speedups" \
    || fail "what-if rows are not sorted by descending speedup"

# Guidance entries carry the exact prediction as their sort key.
grep -Eq 'predicted speedup [0-9]+\.[0-9]{3}x' "$tmpdir/analyze.out" \
    || fail "guidance is missing the predicted-speedup annotation"

# A fix must actually attach and pay off on this workload: the best row
# beats 1.0x (streamcluster's block array is remote-heavy by design).
best=$(head -n 1 "$tmpdir/speedups")
awk -v s="$best" 'BEGIN { exit !(s > 1.0) }' \
    || fail "best predicted speedup $best does not beat 1.0x"

# A measurement whose rank-0 tids are not 0..N-1 (a thread's profile is
# missing) gives no team size to re-run with: a hard error, no table.
cp -r "$tmpdir/meas" "$tmpdir/gap"
rm -f "$tmpdir/gap/profile-0-3.dcpf"
"$analyze" "$tmpdir/gap" --whatif streamcluster \
    > "$tmpdir/gap.out" 2> "$tmpdir/gap.err"
[ $? -eq 1 ] || fail "a tid gap did not make --whatif exit 1"
grep -q "tids 0..N-1" "$tmpdir/gap.err" \
    || fail "a tid gap produced no team-size error"
grep -q "== what-if" "$tmpdir/gap.out" \
    && fail "a tid gap still printed a what-if table"

# The team size comes from the measurement; there is no flag for it.
"$analyze" "$tmpdir/meas" --whatif streamcluster --whatif-threads 8 \
    > /dev/null 2>&1
[ $? -eq 2 ] || fail "--whatif-threads was not rejected as a usage error"

# Unknown what-if workloads are hard errors, not silent no-ops.
if "$analyze" "$tmpdir/meas" --whatif nosuchworkload \
    > /dev/null 2> "$tmpdir/analyze.err"; then
  fail "dcprof_analyze accepted an unknown --whatif workload"
fi
grep -q 'unknown --whatif workload' "$tmpdir/analyze.err" \
    || fail "unknown --whatif workload produced no error message"

echo "whatif_smoke OK"
