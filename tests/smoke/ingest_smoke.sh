#!/usr/bin/env bash
# Continuous-ingestion smoke test: dcprof_ingestd drains a synthetic
# fleet, proves its aggregate byte-identical to a one-shot batch
# analysis, survives a kill-and-resume, and retires claimed shards into
# ingested/.
#
#   ingest_smoke.sh <dcprof_ingestd>
set -u

ingestd=$1

tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "ingest_smoke FAIL: $*" >&2
  exit 1
}

# 1. Drain a synthetic fleet and verify against the batch analyzer.
"$ingestd" "$tmpdir/meas" --simulate-shards 300 --drain --verify-batch \
    --stats-json "$tmpdir/ingest.json" \
    || fail "drain + verify run exited $?"
[ -s "$tmpdir/ingest.json" ] || fail "stats json missing or empty"
grep -q '"shards": 300' "$tmpdir/ingest.json" \
    || fail "stats json does not report 300 shards"
# Throughput figures carry the host's core count and the build type.
grep -Eq '"cores": [1-9][0-9]*,' "$tmpdir/ingest.json" \
    || fail "stats json does not report cores"
grep -Eq '"build_type": "[A-Za-z]+"' "$tmpdir/ingest.json" \
    || fail "stats json does not report the build type"

# 2. Kill/resume: ingest half the corpus in bounded polls, "crash" (the
# --once exit writes a checkpoint; a harsher kill is covered by the
# randomized unit test), then resume and finish. The daemon must report
# the resume and end with every shard ingested exactly once.
"$ingestd" "$tmpdir/meas2" --simulate-shards 200 --simulate-only \
    || fail "corpus generation exited $?"
"$ingestd" "$tmpdir/meas2" --once --max-files-per-poll 120 \
    || fail "first (interrupted) run exited $?"
"$ingestd" "$tmpdir/meas2" --drain --stats-json "$tmpdir/resume.json" \
    2> "$tmpdir/resume.err" \
    || fail "resumed run exited $?"
grep -q "resumed from" "$tmpdir/resume.err" \
    || fail "resumed run did not load the checkpoint"
grep -q '"shards": 200' "$tmpdir/resume.json" \
    || fail "resume lost or duplicated shards"
grep -q '"resumes": 1' "$tmpdir/resume.json" \
    || fail "resume not recorded in stats"

# 3. Claimed shards retired out of the watched directory.
leftover=$(ls "$tmpdir/meas2"/*.dcpf 2>/dev/null | wc -l)
[ "$leftover" -eq 0 ] || fail "$leftover shards left unclaimed"
retired=$(ls "$tmpdir/meas2/ingested"/*.dcpf 2>/dev/null | wc -l)
[ "$retired" -eq 200 ] || fail "expected 200 retired shards, got $retired"

echo "ingest_smoke OK"
