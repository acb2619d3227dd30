#!/bin/sh
# verify.sh — the repository's check tiers.
#
#   tier 1: go build ./... && go test ./...        (the seed contract)
#   tier 2: go vet ./... && go test -race ./...    (static + race checks)
#           plus a run of every example under examples/ (each must exit
#           0), the borrowed-tuple and key-column guards, the server's
#           connection tests and the wire allocation guards again at
#           GOMAXPROCS=4, and the nested benchmark module (benchmark/README.md): vet
#           and unit tests of the harness and the ladder, and a -quick
#           run with every output check on, so an internal signature
#           change cannot break the benchmark unnoticed
#   tier 3: concurrency + parallel sweep guards     (docs/CONCURRENCY.md,
#           docs/PARALLEL.md: serializability oracle, race-stress soak,
#           determinism oracles, fuzz smokes), the telemetry smoke
#           (docs/TELEMETRY.md: -listen endpoints, curl, procstat),
#           the diagnosis smoke (docs/DIAGNOSIS.md: -critpath,
#           -ledger, procstat), and the serving guards
#           (docs/SERVING.md: wire-frame fuzz smokes, the served race
#           soak + driver conformance under -race, the procserved
#           process smoke via scripts/server_smoke.sh), the
#           hostile-workload scenario guards (docs/SCENARIOS.md:
#           adversarial-invalidation serializability soak under -race,
#           the scenario pipeline smoke via scripts/scenario_smoke.sh),
#           and the wire-tracing guards (docs/TRACING.md: the 8-client
#           sum-to-total breakdown soak under -race, the cross-process
#           trace smoke via scripts/trace_smoke.sh), and the MVCC
#           snapshot guards (docs/MVCC.md: the 8-client storm-adversarial
#           snapshot soak under -race with the SI-aware oracle and the
#           watchdog flight dump kept as an artifact, the write-skew
#           corpus, the access wait-share collapse and the scenario
#           replay property)
#
# What instrumentation costs when it is off is held by allocation guards
# in tier 1 (metric.TestChargesAllocateNothing,
# engine.TestUpdateFootprintBuiltOnce,
# cache.TestInvalidateLedgerOffAllocatesNothing), not by timing ratios.
#
# Run from the repository root: sh scripts/verify.sh
#
# Environment knobs:
#   VERIFY_MAX_TIER=N        stop after tier N (CI runs tiers 1-2)
#   VERIFY_ARTIFACTS=DIR     keep the tier-3 smoke artifacts (metrics
#                            scrape, flight tail, ledger, ledger report)
#                            in DIR instead of a deleted temp dir — CI
#                            uploads this directory when the soak fails

set -e

MAX_TIER="${VERIFY_MAX_TIER:-3}"

stop_after() {
    if [ "$MAX_TIER" -le "$1" ]; then
        echo "== stopping after tier $1 (VERIFY_MAX_TIER=$MAX_TIER) =="
        exit 0
    fi
}

echo "== tier 1: build + test =="
go build ./...
go test ./...
stop_after 1

echo "== tier 2: vet + race =="
go vet ./...
# Vet again with the race build tag set, so any //go:build race test
# helpers (deadlock watchdogs, soak gates) are vetted too.
go vet -tags=race ./...
go test -race ./...
# The runnable examples call the internal packages directly and no test
# runs them, so a change that breaks one (a strategy access outside a
# read scope, say) would go unnoticed: each must exit 0.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done
echo "examples: OK"
# The zero-copy read path's guards once more with GOMAXPROCS raised, so
# that sessions interleave even on a single-core box: the borrowed-tuple
# oracle (every retaining consumer over tuples overwritten when emit
# returns, and one shared plan executed by four sessions at once), the
# hash key column read by snapshot readers while the writer inserts and
# deletes, and the batched probe's guards: a batch equals its keys probed
# one by one (records, order, page reads), a probe stops at the row that
# said stop, and a recomputed value allocates by the block, as does a
# cached QUEL execute (its allocations do not grow with its rows). Opening
# a world leans on the same rule: the Rete fill submits the scanned
# records themselves, so every node must copy what it keeps
# (TestReteNodesCopyWhatTheyKeep), and the faster load must lay out the
# same world (TestBuildLayoutPinned).
GOMAXPROCS=4 go test -race -count=3 \
    -run 'CopyWhatTheyKeep|TestSharedPlanExecutesConcurrently|TestTableSnapshotsSurviveUpdates|TestLookupBatch|TestProbeStopsAtTheRowThatSaidStop|JoinAccessAllocations|TestColdFillMaterializeAllocations|TestAggregateAllocatesPerGroup|TestCachedExecuteAllocatesByTheBlock|TestBuildLayoutPinned' \
    ./internal/query/ ./internal/proc/ ./internal/avm/ ./internal/quel/ ./internal/hashidx/ ./internal/rete/ ./internal/sim/
# The served path's own guards, with GOMAXPROCS raised so the connection
# goroutine, the gate's cancel watcher and Shutdown interleave: cancel,
# vanish, protocol violation and drain against a request parked on the
# statement gate, and an oversize result answered CodeLimit
# (internal/server/conn_test.go), the codec's round-trip property,
# validate-before-allocate and allocation guards (internal/wire), an
# empty round trip's allocations end to end, and the frame batching rule:
# a batch never overflows its frame, and a result that fits in one frame
# costs one request. Every request type's service time and every engine
# op lands in an obs.Histogram, so its guards ride here too: the stated
# one-bucket bound, exact merging, observers racing a scraper, and the
# p99 detector firing with no option but a Recorder set. So do the
# lock table's: every wait timed and blamed with or without CritPath,
# the contention profile, and an uncontended acquire held to two
# allocations. So do the
# bounded-memory world's: a stepped world retains nothing per op and an
# open hot-read world holds its stream compactly
# (TestServedWorldStreamIsCompact, both in ./internal/server), the
# running history digest replays, is order-sensitive and covers every
# field, and the compact op stream rebuilds the reference ops in at most
# 4 bytes per op. The engine deals that stream for every driver: session
# i of n commits ops i, i+n, … and WorldOpened announces each share; a
# lock.release event is an update's footprint hold, never a query's; and
# a served world step allocates no more than before the deal moved
# (TestWorldStepAllocations). Every session traces on its own pager and
# the commit moves each op's span tree into the run's trace: one session
# writes sim.Run's trace span for span, and with four the root spans tile
# the run's cost and every child's parent lies in its own op's tree.
GOMAXPROCS=4 go test -race -count=3 ./internal/server
GOMAXPROCS=4 go test -race -count=3 \
    -run 'TestHistogramWallBound|TestHistogramMerge|TestHistogramConcurrentObserve|TestLatencyDetectorNeedsNoOtherOption|TestHistoryDigest|TestStreamBytesPerOp|TestSequenceMatchesReference|TestScheduleStreamMatchesReference|TestCritPathSumsToWall|TestUpdateFootprintBuiltOnce|TestContentionProfile|TestBlameWithoutCritPath|TestSessionsStepTheirDealtOps|TestLockReleaseIsAnUpdatesHold|TestOneClientTraceMatchesSimRun|TestConcurrentTraceNests' \
    ./internal/obs/ ./internal/engine/ ./internal/workload/
GOMAXPROCS=4 go test -count=1 \
    -run 'TestCodec|TestDecodeValidatesBeforeAllocating|TestBuffersShrink|TestReaderPeek|TestTracingOffByteIdentity|TestPingAllocations|TestWorldStepAllocations|TestFrameRowsFit|TestOneFrameResultIsOneRequest' \
    ./internal/wire/ ./client/
# Page-image reclamation (docs/MVCC.md, "Reclamation"): version GC hands
# superseded images to later updates as their buffers, so a reader that
# outlives its snapshot now reads somebody's write. The poison-on-reclaim
# suite (every reclaimed buffer filled with 0xDB the moment GC takes it:
# the cowtest harness per structure, every strategy with four sessions
# against the SI oracle and an unpoisoned twin, borrowed tuples held
# across reclaiming updates and refreshes) and the guards (an update
# reuses its pages, shared images are never pooled, the pool is bounded
# per image length and hands a buffer only to its own length, a world's
# images are pinned to its owners' packed sizes, a directory mutation
# copies at most 512 bytes), with GOMAXPROCS raised so GC, the epoch
# writer and snapshot readers interleave.
GOMAXPROCS=4 go test -race -count=3 \
    -run 'SnapshotsSurviveUpdates|TestPoisonOnReclaim|TestAccessResultsSurviveReclamation|TestUpdateReusesItsPages|TestReclaim|TestImagePoolBounded|TestImagePoolSizedReuse|TestWorldImageBytes|TestDirectoryMutationCopiesAtMost512B' \
    ./internal/storage/ ./internal/btree/ ./internal/hashidx/ ./internal/proc/ ./internal/engine/ ./internal/sim/
# Transaction epochs (docs/MVCC.md, "Abandon"): an abandoned epoch leaves
# every directory equal to its published copy, gives its pages back and
# hides from a concurrent snapshot; a failed QUEL update changes nothing
# and aborts its transaction; the seeded rollback-heavy property test; the
# driver's view of both; a second writer cannot open the epoch; snapshot
# readers on other connections neither queue behind an open transaction
# nor see it; and a request parked on the gate is a write. GOMAXPROCS is
# raised.
GOMAXPROCS=4 go test -race -count=3 \
    -run 'Abandon|TestTx|TestFailedUpdateIsAtomic|TestRollbackHeavyProperty|TestDriverConformance|ReadDuringOpenTx|TestSnapshotReadersUnderWriters|BeginEpoch|Parked' \
    ./internal/storage/ ./internal/btree/ ./internal/hashidx/ ./internal/quel/ ./internal/server/ ./client/
# The benchmark is a module of its own (dbproc/benchmark, replace =>
# ../), so nothing above builds it: vet and test it, then run the
# harness once at 1/50 of the time with its output checks on.
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -quick >/dev/null
echo "benchmark module + quick run: OK"
stop_after 2

echo "== tier 3: concurrency + parallel sweep engine guards =="
# Serializability oracle and multi-session race-stress soak: 8 sessions
# per caching strategy under the race detector, with the deadlock
# watchdog armed (-short caps the soak matrix; GOMAXPROCS raised so
# sessions genuinely interleave on single-core CI boxes).
GOMAXPROCS=4 go test -race -short \
    -run 'TestOracleSerializable|TestOracleRejectsCorruptedHistory|TestRaceStress|TestClientsOneMatchesSequential|TestLockTable|TestTelemetryPreservesSequentialIdentity|TestFlightRecorderCapturesRun|TestContentionProfile|TestCritPathSumsToWall|TestDiagnosisPreservesSequentialIdentity|TestScenarioOracleAdversarial|TestScenarioClientsOneMatchesSequential|TestScenarioConcurrentConsistent|TestScenarioRunReplayable' \
    ./internal/engine/
# MVCC snapshot soak (docs/MVCC.md): 8 sessions under storm-adversarial
# traffic with snapshot reads ON — every lifted history checked by the
# SI-aware oracle, every procedure checked against a fresh recompute —
# plus the write-skew corpus the old commit-order check must miss, the
# access wait-share collapse and the scenario replay property (one
# client reproduces sim.Run; reruns offer the same ops). TMPDIR points at the artifact dir so a stalled soak's
# watchdog flight dump is kept for CI upload.
MVCC_ART="${VERIFY_ARTIFACTS:-$(mktemp -d)}"
mkdir -p "$MVCC_ART"
TMPDIR="$MVCC_ART" GOMAXPROCS=4 go test -race \
    -run 'TestMVCCSnapshotSoak|TestMVCCAccessWaitShareCollapse|TestSIOracleCorpus|TestSIOracleMinimalWindow|TestSIOracleSeeded|TestTxnsFromHistoryCleanRun|TestScenarioClientsOneMatchesSequential|TestScenarioRunReplayable' \
    ./internal/engine/
echo "mvcc snapshot soak: OK"

# Injected-RNG audit: simulation worlds must be self-contained, so no
# non-test code under internal/ may draw from the package-level
# math/rand generator (rand.New(rand.NewSource(...)) instances are the
# sanctioned pattern; "rand." method calls go through those).
if grep -rn --include='*.go' --exclude='*_test.go' \
        -E 'rand\.(Int|Intn|Int31|Int63|Float32|Float64|Perm|Shuffle|Seed|ExpFloat64|NormFloat64)\(' \
        internal/ cmd/; then
    echo "verify: FAIL - package-level math/rand call in non-test code (inject rand.New(rand.NewSource(seed)))"
    exit 1
fi
echo "rand audit: OK"

# The determinism contract and the strategy-equivalence oracle, under the
# race detector with a multi-worker pool (GOMAXPROCS raised so the pool
# genuinely interleaves even on single-core CI boxes).
GOMAXPROCS=4 go test -race \
    -run 'TestDifferentialOracle|TestRunDeterminism|TestSweepWorkerCountInvariance|TestMapOrderIsDeterministic' \
    ./internal/sim/ ./internal/experiments/ ./internal/parallel/

# Parser/planner no-panic fuzz smoke.
go test -fuzz='^FuzzParse$' -fuzztime=10s -run '^FuzzParse$' ./internal/quel/

# Planner determinism fuzz smoke: concurrent compilation of transcript
# corpora must render identical plans (docs/CONCURRENCY.md).
go test -fuzz='^FuzzPlan$' -fuzztime=10s -run '^FuzzPlan$' ./internal/quel/

# Wire-frame fuzz smokes (docs/SERVING.md): the decoder must survive
# malformed, truncated and adversarial length-prefixed frames without
# panicking or over-allocating, and decode->encode->decode must be a
# fixpoint. The corpus holds the version 2 seeds (v2-NN: well-formed
# frames and payloads aimed at each count the binary decoder validates)
# beside the version 1 JSON ones (seed-NN), which must still fail cleanly.
go test -fuzz='^FuzzFrameDecode$' -fuzztime=10s -run '^FuzzFrameDecode$' ./internal/wire/
go test -fuzz='^FuzzFrameRoundTrip$' -fuzztime=10s -run '^FuzzFrameRoundTrip$' ./internal/wire/

# Served race soak + driver conformance + cross-wire identity + tracing
# guards: 8 concurrent database/sql clients over loopback procserved
# under the race detector, the conformance suite's handle-table drain
# checks, the byte-identity of a served 1-client world against sim.Run
# — with tracing ON (docs/SERVING.md) — and the 8-client sum-to-total
# soak: every traced response's server breakdown must partition its wall
# exactly (docs/TRACING.md).
GOMAXPROCS=4 go test -race \
    -run 'TestServedRaceSoak|TestServedIdentity|TestDriverConformance|TestAdmissionLimit|TestGracefulDrain|TestServerBreakdownSumsToWall|TestPooledConnStats|TestTracingOffByteIdentity' \
    ./client/ ./internal/wire/

# procserved process smoke: real server process, database/sql driver
# workload, /metrics scrape, clean SIGINT drain (docs/SERVING.md).
sh scripts/server_smoke.sh

# Wire-tracing process smoke: procserved -trace, a traced proctrace
# -drive workload, and the cross-process merge — sum-to-total checked,
# flow arrows counted (docs/TRACING.md).
sh scripts/trace_smoke.sh

# Hostile-workload scenario smoke: generate a scaled scenario benchmark,
# render its winner regions, have procstat re-derive the verdicts
# from the row evidence, and soak the 8-session engine under
# storm-adversarial traffic with the flight recorder armed
# (docs/SCENARIOS.md).
sh scripts/scenario_smoke.sh

# Telemetry smoke: a live concurrent procsim must expose /metrics that
# curl can scrape (with the run's committed-op and per-lock counters),
# render live through procstat (critical-path panel included), serve a
# flight tail that round-trips through procstat, and shut down cleanly on
# SIGINT.
echo "telemetry smoke: procsim -listen / curl / procstat"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
# Smoke artifacts (metrics scrape, flight tail, ledger, ledger report) go
# to VERIFY_ARTIFACTS when set — kept for CI upload — else to the
# deleted temp dir.
ART="${VERIFY_ARTIFACTS:-$SMOKE}"
mkdir -p "$ART"
go build -o "$SMOKE/procsim" ./cmd/procsim
go build -o "$SMOKE/procstat" ./cmd/procstat
"$SMOKE/procsim" -N 600 -f 0.0133 -N1 3 -N2 3 -k 15 -q 25 \
    -clients 8 -strategy ci -listen 127.0.0.1:0 \
    -critpath -ledger "$ART/ledger.jsonl" -flight "$ART/flight.jsonl" \
    >"$ART/out.txt" 2>"$ART/err.txt" &
SIM_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$ART/err.txt" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "verify: FAIL - procsim -listen never reported a bound address"
    kill "$SIM_PID" 2>/dev/null || true
    exit 1
fi
for _ in $(seq 1 200); do
    grep -q "run complete" "$ART/err.txt" && break
    sleep 0.1
done
curl -fsS "http://$ADDR/metrics" >"$ART/metrics.txt"
grep -q '^dbproc_up 1$' "$ART/metrics.txt" || {
    echo "verify: FAIL - /metrics missing dbproc_up"; exit 1; }
grep -q '^dbproc_ops_committed_total 40$' "$ART/metrics.txt" || {
    echo "verify: FAIL - /metrics committed ops != workload size 40"; exit 1; }
grep -q '^dbproc_lock_acquires_total{lock="rel:r1"}' "$ART/metrics.txt" || {
    echo "verify: FAIL - /metrics missing per-lock contention counters"; exit 1; }
# The -critpath run must export the critical-path decomposition series.
grep -q '^dbproc_critpath_seconds_total{segment="compute"}' "$ART/metrics.txt" || {
    echo "verify: FAIL - /metrics missing critical-path segment series"; exit 1; }
"$SMOKE/procstat" "http://$ADDR" >"$ART/blame.txt"
grep -q 'critical path:' "$ART/blame.txt" || {
    echo "verify: FAIL - procstat on the live endpoint rendered no critical-path panel"; exit 1; }
curl -fsS "http://$ADDR/events?n=32" >"$ART/flight-tail.jsonl"
"$SMOKE/procstat" "$ART/flight-tail.jsonl" >"$ART/flightview.txt"
grep -q 'op.commit' "$ART/flightview.txt" || {
    echo "verify: FAIL - flight tail did not round-trip through procstat"; exit 1; }
kill -INT "$SIM_PID"
wait "$SIM_PID"  # procsim must exit 0 on SIGINT (set -e enforces)
echo "telemetry smoke: OK"

# Causal diagnosis smoke: the ledger the run just wrote must parse and
# yield a strategy section with a dominant bottleneck (docs/DIAGNOSIS.md).
echo "diagnosis smoke: procstat ledger"
"$SMOKE/procstat" "$ART/ledger.jsonl" >"$ART/ledger-report.txt"
grep -q 'dominant bottleneck:' "$ART/ledger-report.txt" || {
    echo "verify: FAIL - procstat found no dominant bottleneck in the smoke ledger"; exit 1; }
echo "diagnosis smoke: OK"
if [ -n "${VERIFY_ARTIFACTS:-}" ]; then
    echo "smoke artifacts kept in $ART"
fi

echo "== all tiers passed =="
