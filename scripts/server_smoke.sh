#!/bin/sh
# server_smoke.sh — end-to-end smoke of the serving layer (docs/SERVING.md).
#
# Starts a real procserved process with its telemetry endpoint, then:
#
#   1. runs a workload through TWorldNext steps over the wire
#      (procsim -connect) and checks the 1-client identity line,
#   2. runs interactive QUEL statements over the wire (procshell -connect),
#   3. scrapes /metrics for the server's connection/handle gauges and
#      admission counters, and renders the served request table from it
#      with procstat,
#   4. sends SIGINT and requires a clean graceful drain (exit 0, "bye").
#
# Run from the repository root: sh scripts/server_smoke.sh
# CI runs it as the tier-2 server smoke job (.github/workflows/ci.yml);
# verify.sh tier 3 runs it too. VERIFY_ARTIFACTS keeps the transcript and
# metrics scrape for upload on failure.

set -e

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"; kill "$SRV_PID" 2>/dev/null || true' EXIT
ART="${VERIFY_ARTIFACTS:-$SMOKE}"
mkdir -p "$ART"

go build -o "$SMOKE/procserved" ./cmd/procserved
go build -o "$SMOKE/procsim" ./cmd/procsim
go build -o "$SMOKE/procshell" ./cmd/procshell
go build -o "$SMOKE/procstat" ./cmd/procstat

"$SMOKE/procserved" -listen 127.0.0.1:0 -telemetry 127.0.0.1:0 \
    >"$ART/served-out.txt" 2>"$ART/served-err.txt" &
SRV_PID=$!

ADDR=""
TADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^procserved: listening on ##p' "$ART/served-err.txt" | head -1)
    TADDR=$(sed -n 's#^telemetry: listening on http://##p' "$ART/served-err.txt" | head -1)
    [ -n "$ADDR" ] && [ -n "$TADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ] || [ -z "$TADDR" ]; then
    echo "server smoke: FAIL - procserved never reported its bound addresses"
    exit 1
fi

# A measured workload through sql.Open("dbproc", ...): one client, so the
# run must print the byte-identity line against the sequential simulator.
"$SMOKE/procsim" -connect "$ADDR" -N 600 -f 0.0133 -N1 3 -N2 3 -k 15 -q 25 \
    -strategy ci >"$ART/served-sim.txt"
grep -q '= sim.Run' "$ART/served-sim.txt" || {
    echo "server smoke: FAIL - served 1-client run did not match sim.Run"; exit 1; }

# Interactive statements over the wire: schema, DML, a retrieve.
printf '%s\n' \
    'create emp (tid, age) cluster on age;' \
    'append to emp (tid = 1, age = 30);' \
    'retrieve (emp.all);' \
    '.quit' \
    | "$SMOKE/procshell" -connect "$ADDR" >"$ART/served-shell.txt"
grep -q 'age' "$ART/served-shell.txt" || {
    echo "server smoke: FAIL - procshell -connect retrieve printed no rows"; exit 1; }

# The server's own gauges and counters on /metrics: connection-pool
# gauges present, and the admission/request counters show the traffic
# the two clients just generated.
curl -fsS "http://$TADDR/metrics" >"$ART/served-metrics.txt"
for series in \
    '^dbproc_server_connections ' \
    '^dbproc_server_stmts_open ' \
    '^dbproc_server_cursors_open ' \
    '^dbproc_server_tx_open '; do
    grep -q "$series" "$ART/served-metrics.txt" || {
        echo "server smoke: FAIL - /metrics missing series $series"; exit 1; }
done
ACCEPTED=$(sed -n 's/^dbproc_server_connections_accepted_total //p' "$ART/served-metrics.txt")
case "$ACCEPTED" in
    ''|0) echo "server smoke: FAIL - no connections accepted (got '$ACCEPTED')"; exit 1 ;;
esac
REQUESTS=$(sed -n 's/^dbproc_server_requests_total //p' "$ART/served-metrics.txt")
case "$REQUESTS" in
    ''|0) echo "server smoke: FAIL - no requests recorded (got '$REQUESTS')"; exit 1 ;;
esac
# The same endpoint read live: procstat renders the per-request-type
# service-time table from the dbproc_server_request_seconds series.
"$SMOKE/procstat" "http://$TADDR" >"$ART/served-live.txt"
grep -q '^    stmt  ' "$ART/served-live.txt" || {
    echo "server smoke: FAIL - procstat rendered no served request table"; exit 1; }

# Clean drain: SIGINT must exit 0 (set -e enforces) and say goodbye.
kill -INT "$SRV_PID"
wait "$SRV_PID"
grep -q '^procserved: bye$' "$ART/served-err.txt" || {
    echo "server smoke: FAIL - no clean drain message"; exit 1; }

echo "server smoke: OK (accepted=$ACCEPTED requests=$REQUESTS)"
