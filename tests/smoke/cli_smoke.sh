#!/usr/bin/env bash
# End-to-end CLI smoke test: dcprof_measure writes a measurement
# directory, dcprof_analyze consumes it. Asserts exit codes, that the
# measurement directory has profiles, and that --metrics-json wrote
# non-empty JSON from both tools. Also checks dcprof_measure's bad-input
# paths: --threads 0 is a usage error (exit 2), an out-dir it cannot
# create fails with exit 1 before any simulation runs, and an unwritable
# --metrics-json fails with exit 1 instead of reporting it was written.
# A numeric value that would wrap or truncate (--threads 2^32+1,
# --period -1, dcprof_analyze --workers 2^32+1) is a usage error too, as
# is the removed --throttle-budget option. dcprof_analyze's corrupt-file
# policy is one option: --policy strict exits 1 naming a truncated shard,
# --policy quarantine moves it into quarantine/, and --strict (the old
# flag) or an unknown policy is a usage error. A structure.dcst with
# bytes after its last table fails the analysis (exit 1, naming it).
# dcprof_verify --fuzz takes a measurement directory's .dcpf files as
# extra mutation bases (--corpus), and a missing one fails with exit 1.
#
#   cli_smoke.sh <dcprof_measure> <dcprof_analyze> <dcprof_verify>
set -u

measure=$1
analyze=$2
verify=$3

tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "cli_smoke FAIL: $*" >&2
  exit 1
}

"$measure" streamcluster "$tmpdir/meas" --threads 4 --period 256 \
    --metrics-json "$tmpdir/measure-metrics.json" \
    || fail "dcprof_measure exited $?"

ls "$tmpdir/meas"/*.dcpf >/dev/null 2>&1 \
    || fail "no .dcpf files in measurement dir"

"$analyze" "$tmpdir/meas" --overhead \
    --metrics-json "$tmpdir/analyze-metrics.json" \
    > "$tmpdir/analyze.out" \
    || fail "dcprof_analyze exited $?"

[ -s "$tmpdir/analyze.out" ] || fail "dcprof_analyze printed nothing"

for json in "$tmpdir/measure-metrics.json" "$tmpdir/analyze-metrics.json"; do
  [ -s "$json" ] || fail "$(basename "$json") missing or empty"
  head -c1 "$json" | grep -q '{' || fail "$(basename "$json") is not JSON"
done

"$measure" streamcluster "$tmpdir/bad" --threads 0 \
    > "$tmpdir/threads0.out" 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "--threads 0 exited $rc, expected usage error 2"

"$measure" streamcluster /proc/x/y --threads 4 --period 256 \
    > "$tmpdir/baddir.out" 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "unwritable out-dir exited $rc, expected 1"
grep -q '^error: ' "$tmpdir/baddir.out" \
    || fail "unwritable out-dir printed no error line"
if grep -q 'simulated cycles' "$tmpdir/baddir.out"; then
  fail "unwritable out-dir ran the workload before failing"
fi

"$measure" streamcluster "$tmpdir/meas-badjson" --threads 4 --period 256 \
    --metrics-json "$tmpdir/no/such/dir/m.json" \
    > "$tmpdir/badjson.out" 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "unwritable --metrics-json exited $rc, expected 1"
grep -q '^error: ' "$tmpdir/badjson.out" \
    || fail "unwritable --metrics-json printed no error line"
if grep -q 'wrote metrics snapshot' "$tmpdir/badjson.out"; then
  fail "unwritable --metrics-json reported the snapshot written"
fi

# expect_usage_error <pattern> <command...>: exit 2, stderr names why.
expect_usage_error() {
  local pattern=$1
  shift
  "$@" > "$tmpdir/usage.out" 2>&1
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$* exited $rc, expected usage error 2"
  grep -q -- "$pattern" "$tmpdir/usage.out" \
      || fail "$* printed no '$pattern' line"
}

expect_usage_error 'bad value for --threads' \
    "$measure" nw "$tmpdir/bad" --threads 4294967297
expect_usage_error 'bad value for --period' \
    "$measure" nw "$tmpdir/bad" --period -1
expect_usage_error 'bad value for --workers' \
    "$analyze" "$tmpdir/meas" --workers 4294967297
expect_usage_error 'unknown option --throttle-budget' \
    "$measure" nw "$tmpdir/bad" --throttle-budget 1

cp -r "$tmpdir/meas" "$tmpdir/corrupt" || fail "cannot copy the measurement"
bad=$(ls "$tmpdir/corrupt"/*.dcpf | head -n 1)
bad_name=$(basename "$bad")
truncate -s 100 "$bad" || fail "cannot truncate $bad_name"
"$analyze" "$tmpdir/corrupt" --policy strict > "$tmpdir/strict.out" 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "--policy strict exited $rc, expected 1"
grep -q -- "$bad_name" "$tmpdir/strict.out" \
    || fail "--policy strict did not name $bad_name"
"$analyze" "$tmpdir/corrupt" --policy quarantine > "$tmpdir/quarantine.out" \
    2>&1 || fail "--policy quarantine exited $?"
[ -f "$tmpdir/corrupt/quarantine/$bad_name" ] \
    || fail "--policy quarantine did not move $bad_name into quarantine/"
[ ! -e "$bad" ] || fail "--policy quarantine left $bad_name in place"
cp -r "$tmpdir/meas" "$tmpdir/padded" || fail "cannot copy the measurement"
printf 'trailing' >> "$tmpdir/padded/structure.dcst"
"$analyze" "$tmpdir/padded" > "$tmpdir/padded.out" 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "structure.dcst with trailing bytes exited $rc, expected 1"
grep -q 'structure.dcst' "$tmpdir/padded.out" \
    || fail "trailing bytes in structure.dcst were not named"

expect_usage_error 'unknown option --strict' \
    "$analyze" "$tmpdir/meas" --strict
expect_usage_error "unknown --policy 'bogus'" \
    "$analyze" "$tmpdir/meas" --policy bogus

"$verify" --fuzz 20 --corpus "$tmpdir/meas" > "$tmpdir/fuzz.out" 2>&1 \
    || fail "dcprof_verify --fuzz 20 --corpus <measurement> exited $?"
"$verify" --fuzz 20 --corpus "$tmpdir/no-such-corpus" \
    > "$tmpdir/nocorpus.out" 2>&1
rc=$?
[ "$rc" -eq 1 ] || fail "--corpus <missing dir> exited $rc, expected 1"
grep -q '^error: ' "$tmpdir/nocorpus.out" \
    || fail "--corpus <missing dir> printed no error line"

echo "cli_smoke OK"
