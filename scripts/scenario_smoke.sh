#!/bin/sh
# scenario_smoke.sh — end-to-end smoke of the hostile-workload scenario
# pipeline (docs/SCENARIOS.md).
#
#   1. procbench -scenarios-json generates a small scenario benchmark
#      (two hostile scenarios + the polite baseline, scaled down),
#   2. procstat renders its winner-region table and re-derives every
#      winner from the row evidence, confirming the recorded verdicts,
#   3. procsim -scenario drives a storm-adversarial world through the
#      8-session engine with the flight recorder armed — any watchdog,
#      serializability violation or fault dumps to the artifact dir,
#   4. a 1-client scenario run must print the served byte-identity line
#      against sim.Run (replayable from (scenario, seed) alone).
#
# Run from the repository root: sh scripts/scenario_smoke.sh
# CI runs it as the scenario-smoke job (.github/workflows/ci.yml);
# verify.sh tier 3 runs it too. VERIFY_ARTIFACTS keeps the benchmark
# JSON, renders and any flight dump for upload on failure.

set -e

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
ART="${VERIFY_ARTIFACTS:-$SMOKE}"
mkdir -p "$ART"

go build -o "$SMOKE/procbench" ./cmd/procbench
go build -o "$SMOKE/procstat" ./cmd/procstat
go build -o "$SMOKE/procsim" ./cmd/procsim

# 1. Generate: polite baseline + two hostile scenarios, scaled for CI.
"$SMOKE/procbench" -scenarios-json "$ART/BENCH_scenarios_smoke.json" \
    -scale 5 -scenario-filter hot-key-storm,storm-adversarial \
    >"$ART/scenario-bench.txt"
grep -q 'scenario benchmark (3 scenarios, 24 rows' "$ART/scenario-bench.txt" || {
    echo "scenario smoke: FAIL - benchmark grid incomplete"; exit 1; }

# 2. Render and trust: the winner-region table must carry every scenario
# row, and procstat must re-derive every recorded winner from the rows
# shipped beside it (a mismatch exits nonzero).
"$SMOKE/procstat" "$ART/BENCH_scenarios_smoke.json" \
    >"$ART/scenario-stat.txt"
for sc in polite hot-key-storm storm-adversarial; do
    grep -q "^$sc " "$ART/scenario-stat.txt" || {
        echo "scenario smoke: FAIL - procstat missing $sc rows"; exit 1; }
done
grep -q "verdict(s) re-derived from their row evidence and confirmed" \
    "$ART/scenario-stat.txt" || {
    echo "scenario smoke: FAIL - procstat did not confirm the verdicts"; exit 1; }

# 3. Hostile concurrency: 8 sessions under the nastiest catalog entry,
# flight recorder armed. The run must complete and commit the whole
# dealt schedule (15 updates + 25 queries = 40 ops).
"$SMOKE/procsim" -scenario storm-adversarial -N 600 -f 0.0133 -N1 3 -N2 3 \
    -k 15 -q 25 -clients 8 -strategy ci -flight "$ART/scenario-flight.jsonl" \
    -json >"$ART/scenario-concurrent.json"
grep -q '"ops": 40' "$ART/scenario-concurrent.json" || {
    echo "scenario smoke: FAIL - 8-session scenario run lost operations"; exit 1; }

# 4. Replayability over the wire: a served 1-client scenario world must
# be byte-identical to the sequential simulator.
"$SMOKE/procsim" -scenario hot-key-storm -N 600 -f 0.0133 -N1 3 -N2 3 \
    -k 15 -q 25 -serve -strategy ci >"$ART/scenario-served.txt"
grep -q '= sim.Run' "$ART/scenario-served.txt" || {
    echo "scenario smoke: FAIL - served 1-client scenario run did not match sim.Run"; exit 1; }

echo "scenario smoke: OK"
