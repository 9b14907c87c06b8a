#!/usr/bin/env bash
# cluster_smoke.sh drives fault-tolerant distributed execution end to end
# against real hitl-serve processes: three workers plus a coordinator
# (pooled via -workers-file), a baseline single-node run, a sharded
# cluster run that must match it bit for bit, then a SIGKILL'd worker and
# a re-run that must fail over — still bit-identical — with the retries,
# failovers, and health flips visible in /v1/metrics, /v1/cluster/nodes,
# and the flight recorder. The merged result and its run report are also
# served back from the persistent store under the spec's canonical digest.
# An adaptive episode sharded across the pool must match its single-node
# run round for round, count as one cluster run, and be refused (400) as
# a partial run. Diagnostic artifacts (cluster responses, flight events)
# land in $STORE_DIR/smoke for CI to archive. Needs curl and jq.
#
# HITL_STORE_DIR overrides the coordinator's store location (CI points it
# at a workspace path and uploads it as an artifact).
set -euo pipefail
cd "$(dirname "$0")/.."

STORE_DIR="${HITL_STORE_DIR:-$(mktemp -d)}"
SCRATCH="$(mktemp -d)"
BIN="$SCRATCH/hitl-serve"
SPEC=examples/scenarios/phishing-study.json
EPISODE=examples/scenarios/phishing-adaptive-campaign.json
PIDS=()

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

fail() {
  echo "cluster-smoke: FAIL: $*" >&2
  for log in "$SCRATCH"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

# start_node LOGNAME [extra flags...] -> sets ADDR and PID
start_node() {
  local log="$SCRATCH/$1.log"
  shift
  : >"$log"
  "$BIN" -addr 127.0.0.1:0 "$@" >>"$log" 2>&1 &
  PID=$!
  PIDS+=("$PID")
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$ADDR" ] && curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "$1 did not become healthy"
}

go build -o "$BIN" ./cmd/hitl-serve
echo "== store dir: $STORE_DIR"

echo "== start 3 workers"
declare -A WORKER_PID
WORKERS=()
for i in 1 2 3; do
  start_node "worker$i"
  WORKERS+=("http://$ADDR")
  WORKER_PID["http://$ADDR"]=$PID
  echo "   worker$i at http://$ADDR (pid $PID)"
done

echo "== start coordinator over the pool (-workers-file)"
{
  echo "# cluster smoke pool"
  printf '%s\n' "${WORKERS[@]}"
} >"$SCRATCH/pool.txt"
# Background probing is off so the SIGKILL below is discovered by the
# dispatch path itself — guaranteeing the re-run records a retry and a
# failover rather than racing the prober to the dead worker. The probe
# loop has its own coverage in internal/cluster's tests.
start_node coordinator -workers-file "$SCRATCH/pool.txt" -probe-interval=-1s -store-dir "$STORE_DIR"
COORD="http://$ADDR"
echo "   coordinator at $COORD"

echo "== baseline: single-node run"
# The comparison key: scenario points and derived metrics, canonically
# ordered. The cluster runs below must reproduce these bytes exactly.
curl -fsS -X POST --data-binary @"$SPEC" "$COORD/v1/scenarios/run" |
  jq -S '{points: .points, metrics: .metrics}' >"$SCRATCH/baseline.json"

echo "== cluster run across 6 shards"
curl -fsS -X POST --data-binary @"$SPEC" "$COORD/v1/cluster/run?shards=6&report=1" >"$SCRATCH/cluster1.json"
jq -S '{points: .points, metrics: .metrics}' "$SCRATCH/cluster1.json" >"$SCRATCH/cluster1.cmp.json"
cmp -s "$SCRATCH/baseline.json" "$SCRATCH/cluster1.cmp.json" ||
  fail "healthy cluster run is not bit-identical to the single-node run"
[ "$(jq -r .cluster.shards "$SCRATCH/cluster1.json")" = 6 ] || fail "cluster run did not use 6 shards"
[ "$(jq -r '.cluster.partial // false' "$SCRATCH/cluster1.json")" = false ] || fail "healthy run was partial"
DIGEST=$(jq -r .report.spec_digest "$SCRATCH/cluster1.json")
echo "$DIGEST" | grep -Eq '^[0-9a-f]{64}$' || fail "bad spec digest: $DIGEST"

echo "== merged result persisted under digest $DIGEST"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$COORD/v1/jobs/$DIGEST/result")
[ "$CODE" = 200 ] || fail "stored cluster result: $CODE, want 200"
curl -fsS "$COORD/v1/jobs/$DIGEST/report" >"$SCRATCH/report.json" || fail "no stored report for $DIGEST"
[ "$(jq -r .cluster.shards "$SCRATCH/report.json")" = 6 ] ||
  fail "stored report lacks the 6-shard cluster section: $(cat "$SCRATCH/report.json")"

echo "== adaptive episode across 3 shards: one cluster run, round for round"
curl -fsS -X POST --data-binary @"$EPISODE" "$COORD/v1/scenarios/run" |
  jq -S '{points: .points, metrics: .metrics, rounds: .rounds}' >"$SCRATCH/episode-baseline.json"
runs_total() { curl -fsS "$COORD/v1/metrics" | sed -n 's/^hitl_cluster_runs_total //p'; }
RUNS_BEFORE=$(runs_total)
curl -fsS -X POST --data-binary @"$EPISODE" "$COORD/v1/cluster/run?shards=3" >"$SCRATCH/episode.json"
jq -S '{points: .points, metrics: .metrics, rounds: .rounds}' "$SCRATCH/episode.json" >"$SCRATCH/episode.cmp.json"
cmp -s "$SCRATCH/episode-baseline.json" "$SCRATCH/episode.cmp.json" ||
  fail "cluster episode is not bit-identical to the single-node episode"
RUNS_MOVED=$(($(runs_total) - RUNS_BEFORE))
[ "$RUNS_MOVED" = 1 ] || fail "one episode moved hitl_cluster_runs_total by $RUNS_MOVED, want 1"
CODE=$(curl -s -o "$SCRATCH/episode-partial.json" -w '%{http_code}' -X POST --data-binary @"$EPISODE" \
  "$COORD/v1/cluster/run?shards=3&partial=1")
[ "$CODE" = 400 ] && [ "$(jq -r .field "$SCRATCH/episode-partial.json")" = rounds ] ||
  fail "partial episode: $CODE $(cat "$SCRATCH/episode-partial.json"), want 400 on rounds"

echo "== SIGKILL the busiest worker"
VICTIM=$(jq -r '.cluster.nodes | to_entries | max_by(.value) | .key' "$SCRATCH/cluster1.json")
echo "   victim: $VICTIM (served $(jq -r ".cluster.nodes[\"$VICTIM\"]" "$SCRATCH/cluster1.json") shards)"
kill -9 "${WORKER_PID[$VICTIM]}"

echo "== cluster run again: must fail over and still match"
curl -fsS -X POST --data-binary @"$SPEC" "$COORD/v1/cluster/run?shards=6" >"$SCRATCH/cluster2.json"
jq -S '{points: .points, metrics: .metrics}' "$SCRATCH/cluster2.json" >"$SCRATCH/cluster2.cmp.json"
cmp -s "$SCRATCH/baseline.json" "$SCRATCH/cluster2.cmp.json" ||
  fail "failed-over cluster run is not bit-identical to the single-node run"
FAILOVERS=$(jq -r .cluster.failovers "$SCRATCH/cluster2.json")
[ "$FAILOVERS" -ge 1 ] || fail "no failovers after killing $VICTIM: $(cat "$SCRATCH/cluster2.json")"
[ "$(jq -r '.cluster.partial // false' "$SCRATCH/cluster2.json")" = false ] || fail "failover run was partial"

echo "== coordinator marked the dead worker unhealthy"
curl -fsS "$COORD/v1/cluster/nodes" >"$SCRATCH/nodes.json"
[ "$(jq -r ".nodes[\"$VICTIM\"]" "$SCRATCH/nodes.json")" = unhealthy ] ||
  fail "dead worker not unhealthy: $(cat "$SCRATCH/nodes.json")"

echo "== cluster metrics"
METRICS=$(curl -fsS "$COORD/v1/metrics")
echo "$METRICS" | grep -q '^hitl_cluster_runs_total [2-9]' || fail "runs counter did not advance"
echo "$METRICS" | grep -q '^hitl_cluster_shard_failovers_total [1-9]' || fail "failover counter did not advance"
echo "$METRICS" | grep -q '^hitl_cluster_shard_retries_total [1-9]' || fail "retry counter did not advance"
echo "$METRICS" | grep -q '^hitl_cluster_node_unhealthy [1-9]' || fail "unhealthy gauge still zero"
echo "$METRICS" | grep -E '^hitl_cluster_' | sed 's/^/   /'

echo "== flight recorder shows the shard lifecycle"
curl -fsS "$COORD/v1/debug/events?kind=shard-dispatch,shard-retry,shard-failover,node-unhealthy" \
  >"$SCRATCH/events.json"
for kind in shard-dispatch shard-retry shard-failover node-unhealthy; do
  jq -e ".events | map(.kind) | index(\"$kind\")" "$SCRATCH/events.json" >/dev/null ||
    fail "flight recorder missing $kind events"
done

# Park the diagnostic artifacts next to the store so CI's upload carries
# them.
mkdir -p "$STORE_DIR/smoke"
cp "$SCRATCH/cluster1.json" "$STORE_DIR/smoke/cluster-run-healthy.json"
cp "$SCRATCH/report.json" "$STORE_DIR/smoke/cluster-run-report.json"
cp "$SCRATCH/episode.json" "$STORE_DIR/smoke/cluster-run-episode.json"
cp "$SCRATCH/cluster2.json" "$STORE_DIR/smoke/cluster-run-failover.json"
cp "$SCRATCH/events.json" "$STORE_DIR/smoke/flight-events.json"
cp "$SCRATCH/nodes.json" "$STORE_DIR/smoke/cluster-nodes.json"

echo "cluster-smoke: OK (6 shards, $FAILOVERS failover(s) past a SIGKILL'd worker, bit-identical merges and episode)"
