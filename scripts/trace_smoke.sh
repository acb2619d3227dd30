#!/bin/sh
# trace_smoke.sh — end-to-end smoke of the wire tracing layer
# (docs/TRACING.md).
#
# Starts a real procserved with -trace, then:
#
#   1. drives a mixed traced workload with proctrace -drive (pooled
#      database/sql statements, a mid-cursor close, a transaction, and a
#      2-session critical-path bench world), writing the client half of
#      the trace,
#   2. SIGINTs the server and requires a clean drain that reports the
#      server half's span count,
#   3. checks and merges the two halves with procstat -chrome: every
#      server span's segments must sum exactly to its wall time, and the
#      merged Chrome trace must pair client and server spans with
#      cross-wire flow arrows.
#
# Run from the repository root: sh scripts/trace_smoke.sh
# CI runs it as the trace-smoke job (.github/workflows/ci.yml);
# verify.sh tier 3 runs it too. VERIFY_ARTIFACTS keeps both JSONL halves
# and the merged trace for upload on failure.

set -e

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"; kill "$SRV_PID" 2>/dev/null || true' EXIT
ART="${VERIFY_ARTIFACTS:-$SMOKE}"
mkdir -p "$ART"

go build -o "$SMOKE/procserved" ./cmd/procserved
go build -o "$SMOKE/proctrace" ./cmd/proctrace
go build -o "$SMOKE/procstat" ./cmd/procstat

"$SMOKE/procserved" -listen 127.0.0.1:0 -trace "$ART/server.jsonl" \
    >"$ART/served-out.txt" 2>"$ART/served-err.txt" &
SRV_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^procserved: listening on ##p' "$ART/served-err.txt" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "trace smoke: FAIL - procserved never reported its bound address"
    exit 1
fi

# The traced workload: every request carries a fresh trace context, so
# the server half must hold one span per driven request.
"$SMOKE/proctrace" -drive "$ADDR" -o "$ART/client.jsonl" 2>"$ART/drive-err.txt"
grep -q 'proctrace: drove' "$ART/drive-err.txt" || {
    echo "trace smoke: FAIL - proctrace -drive reported no summary"; exit 1; }

# Clean drain: SIGINT must exit 0 (set -e enforces), say goodbye, and
# flush the server-side spans.
kill -INT "$SRV_PID"
wait "$SRV_PID"
grep -q '^procserved: bye$' "$ART/served-err.txt" || {
    echo "trace smoke: FAIL - no clean drain message"; exit 1; }
grep -q 'procserved: wrote [1-9][0-9]* wire spans' "$ART/served-err.txt" || {
    echo "trace smoke: FAIL - procserved flushed no wire spans"; exit 1; }

# Merge both halves. procstat enforces the sum-to-total invariant on
# every server span; a violation exits nonzero and fails the smoke.
"$SMOKE/procstat" -chrome "$ART/merged.json" \
    "$ART/client.jsonl" "$ART/server.jsonl" >"$ART/merge-out.txt" 2>&1 || {
    cat "$ART/merge-out.txt"
    echo "trace smoke: FAIL - procstat rejected the trace"; exit 1; }
grep -q 'server segments sum to wall' "$ART/merge-out.txt" || {
    echo "trace smoke: FAIL - no sum-to-total confirmation"; exit 1; }

# The merged Chrome trace must actually pair the two processes: every
# client/server pair contributes a request arrow and a response arrow,
# each a flow start ("ph":"s") plus a flow finish ("ph":"f") — so both
# counts must equal twice the pair count. The merge is a single JSON
# line, so count matches with grep -o rather than per-line grep -c.
PAIRS=$(sed -n 's/.*merged.*spans, \([0-9]*\) pairs.*/\1/p' "$ART/merge-out.txt")
case "$PAIRS" in
    ''|0) echo "trace smoke: FAIL - merge paired no spans (got '$PAIRS')"; exit 1 ;;
esac
STARTS=$(grep -o '"ph":"s"' "$ART/merged.json" | wc -l)
FINISHES=$(grep -o '"ph":"f"' "$ART/merged.json" | wc -l)
if [ "$STARTS" -ne $((2 * PAIRS)) ] || [ "$FINISHES" -ne $((2 * PAIRS)) ]; then
    echo "trace smoke: FAIL - $PAIRS pairs but $STARTS/$FINISHES flow starts/finishes"
    exit 1
fi

echo "trace smoke: OK (pairs=$PAIRS arrows=$((STARTS + FINISHES)))"
