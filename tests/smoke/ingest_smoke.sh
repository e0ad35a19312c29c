#!/usr/bin/env bash
# Continuous-ingestion smoke test on real shards: dcprof_measure writes
# an 8-shard nw measurement, dcprof_ingestd drains it, stops and resumes
# from its checkpoint on a copy, and retires the claimed shards into
# ingested/; a claim that cannot land stops it with an error. Flags of
# the removed synthetic benchmark are usage errors.
#
#   ingest_smoke.sh <dcprof_measure> <dcprof_ingestd>
set -u

measure=$1
ingestd=$2

tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "ingest_smoke FAIL: $*" >&2
  exit 1
}

"$measure" nw "$tmpdir/meas" --threads 8 > "$tmpdir/measure.out" 2>&1 \
    || fail "dcprof_measure exited $?"
shards=$(ls "$tmpdir/meas"/*.dcpf 2>/dev/null | wc -l)
[ "$shards" -eq 8 ] || fail "expected 8 measured shards, got $shards"
cp -r "$tmpdir/meas" "$tmpdir/copy" || fail "cannot copy the measurement"
cp -r "$tmpdir/meas" "$tmpdir/noclaim" || fail "cannot copy the measurement"

# 1. Drain the measurement.
"$ingestd" "$tmpdir/meas" --drain --idle-polls 1 2> "$tmpdir/drain.err" \
    || fail "drain exited $?"
grep -q '^dcprof_ingestd: 8 shards (' "$tmpdir/drain.err" \
    || fail "drain summary does not report 8 shards"

# 2. Stop and resume on the copy: one bounded poll (its exit writes a
# checkpoint; a harsher kill is covered by the randomized unit test),
# then a drain that must resume from it and end with every shard
# ingested exactly once.
"$ingestd" "$tmpdir/copy" --once --max-files-per-poll 3 \
    2> "$tmpdir/once.err" \
    || fail "first (interrupted) run exited $?"
"$ingestd" "$tmpdir/copy" --drain 2> "$tmpdir/resume.err" \
    || fail "resumed run exited $?"
grep -q '^dcprof_ingestd: resumed from .* (3 shards already ingested)$' \
    "$tmpdir/resume.err" \
    || fail "resumed run did not load the 3-shard checkpoint"
grep -q '^dcprof_ingestd: 8 shards (' "$tmpdir/resume.err" \
    || fail "resume lost or duplicated shards"

# 3. Claimed shards retired out of the watched directory.
leftover=$(ls "$tmpdir/copy"/*.dcpf 2>/dev/null | wc -l)
[ "$leftover" -eq 0 ] || fail "$leftover shards left unclaimed"
retired=$(ls "$tmpdir/copy/ingested"/*.dcpf 2>/dev/null | wc -l)
[ "$retired" -eq 8 ] || fail "expected 8 retired shards, got $retired"

# 4. A claim that cannot land (ingested/ is a dangling link) stops the
# daemon with exit 1 naming the claim; it must not drop the shards from
# its manifest and fold them again on every poll, which never drains.
ln -s "$tmpdir/missing" "$tmpdir/noclaim/ingested" || fail "cannot link"
timeout 60 "$ingestd" "$tmpdir/noclaim" --drain --idle-polls 1 \
    --checkpoint-every 4 --checkpoint "$tmpdir/noclaim.dcck" \
    2> "$tmpdir/noclaim.err"
rc=$?
[ "$rc" -eq 1 ] || fail "unclaimable drain exited $rc, expected 1"
grep -q 'cannot claim .*ingested' "$tmpdir/noclaim.err" \
    || fail "unclaimable drain did not name the claim"

# 5. The removed synthetic-fleet and benchmark flags are usage errors.
# Options carry a value and every run adds --once, so a flag that still
# parsed would run one poll and exit 0.
for flag in "--simulate-shards 10" "--arrival-rate 5" "--seed 1" \
            "--simulate-only" "--verify-batch" "--bench-compare" \
            "--stats-json $tmpdir/out.json"; do
  # shellcheck disable=SC2086  # split the flag from its value
  "$ingestd" "$tmpdir/meas" $flag --once > /dev/null 2>&1
  rc=$?
  [ "$rc" -eq 2 ] || fail "$flag exited $rc, expected usage error 2"
done

echo "ingest_smoke OK"
