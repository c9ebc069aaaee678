#!/usr/bin/env bash
# End-to-end smoke test for the networked store: boots a real 3-node
# loopback cluster from the release binaries, drives it through
# put / partition / put / heal / get with dynvote-ctl, and asserts the
# voting guarantees hold over actual sockets:
#
#   * the majority side keeps accepting writes during the partition;
#   * the isolated minority refuses both reads and writes;
#   * after healing + recovery, every node serves the surviving value;
#   * a node killed -9 mid-write-stream restarts from its --data-dir
#     (snapshot + WAL), reports its durability counters, reruns
#     RECOVER, and serves the value committed while it was dead.
#
# Finishes with a small loopback throughput sanity check over ONE
# persistent pipelined connection (dynvote-ctl --repeat) and writes the
# numbers to store-smoke-logs/BENCH_smoke.json (override with
# BENCH_OUT=...). The store's load harness is `benchmark/run.sh`
# (BENCHMARK.json) — this smoke number only proves the batch path
# works end to end from the CLI.
#
# The daemons here are started without `--shards`: one shard group on
# all three nodes. The paper's one file is the key `file` of that
# group's map: `dynvote-ctl --shard 0 putk file V` / `getk file` write
# and read it at the node they are sent to, and `recover` runs RECOVER
# there (`--shard 0 status` is the group's ⟨o, v, P⟩ and durability
# counters; a bare `status` is the node's own).
#
# With `--shards`, runs the *multi-shard* phase instead: 2 shard
# groups over the same 3 nodes (`--shards 2 --shard-placement ring:3`),
# keyed puts routed across both groups, kill -9 of a replica that
# serves in both shards mid-stream, restart-from-disk with per-shard
# WAL namespaces (`--data-dir/shard-<k>/`), per-shard RECOVER through
# the shard envelope, and a full keyed read-back of every key.
#
#   scripts/store_smoke.sh            # full run
#   scripts/store_smoke.sh --shards   # multi-shard phase
#   BENCH_OUT=/tmp/b.json scripts/store_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"

PORT_BASE="${STORE_SMOKE_PORT_BASE:-7141}"
LOG_DIR="store-smoke-logs"
BENCH_OUT="${BENCH_OUT:-$LOG_DIR/BENCH_smoke.json}"
BENCH_OPS="${STORE_SMOKE_OPS:-500}"
BENCH_PIPELINE="${STORE_SMOKE_PIPELINE:-16}"

STORED=target/release/dynvote-stored
CTL=target/release/dynvote-ctl

cargo build --release -p dynvote-store

rm -rf "$LOG_DIR"
mkdir -p "$LOG_DIR"

A="127.0.0.1:$PORT_BASE"
B="127.0.0.1:$((PORT_BASE + 1))"
C="127.0.0.1:$((PORT_BASE + 2))"
PEERS="0=$A,1=$B,2=$C"

# PIDS is indexed by site (the *current* incarnation, for targeted
# kills); ALL_PIDS is append-only and holds every process this script
# ever spawned — daemons restarted mid-phase AND the background writer
# — so the EXIT trap reaps stragglers no matter when the script dies.
# Killing an already-dead pid is a harmless no-op.
PIDS=(0 0 0)
ALL_PIDS=()
cleanup() {
    for pid in "${ALL_PIDS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# Starts (or restarts) one site. The data directory lives under
# LOG_DIR so CI's log artifact upload captures snapshot + WAL + epoch
# on failure. --bind-retry-ms rides out the kernel reclaiming a port a
# kill -9 abandoned.
start_node() {
    local site="$1"
    local role_flags
    if [[ "$MODE" == "--shards" ]]; then
        role_flags="--shards 2 --shard-placement ring:3"
    else
        role_flags=""
    fi
    # shellcheck disable=SC2086 # role_flags is a deliberate word list
    "$STORED" --site "$site" --policy odv --peers "$PEERS" $role_flags \
        --connect-timeout-ms 250 --read-timeout-ms 2000 \
        --backoff-ms 20 --backoff-cap-ms 200 \
        --data-dir "$LOG_DIR/data/node$site" --snapshot-every 8 \
        --bind-retry-ms 15000 --boot-recover-ms 20000 \
        --log "$LOG_DIR/node$site.log" &
    PIDS[site]=$!
    ALL_PIDS+=("${PIDS[site]}")
}

# Polls until the site answers status. Fails loudly — with the node's
# log — if the daemon process dies before ever binding (a silent exit
# here used to surface much later as a confusing protocol refusal).
wait_up() {
    local site="$1" addr="$2"
    for _ in $(seq 1 150); do
        if "$CTL" --node "$addr" status >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "${PIDS[$site]}" 2>/dev/null; then
            echo "FAIL: node $site ($addr) exited before binding; its log:" >&2
            sed 's/^/    /' "$LOG_DIR/node$site.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    echo "FAIL: node $site ($addr) never came up; its log:" >&2
    sed 's/^/    /' "$LOG_DIR/node$site.log" >&2 || true
    exit 1
}

for site in 0 1 2; do
    start_node "$site"
done
for site_addr in "0 $A" "1 $B" "2 $C"; do
    read -r site addr <<<"$site_addr"
    wait_up "$site" "$addr"
done
echo "== 3-node ODV cluster up on $PEERS (durable data dirs in $LOG_DIR/data)"


expect_granted() {
    local what="$1"; shift
    if ! "$@" >/dev/null; then
        echo "FAIL: $what should have been granted" >&2
        exit 1
    fi
    echo "ok: $what granted"
}

expect_refused() {
    local what="$1"; shift
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [[ "$status" -ne 1 ]]; then
        echo "FAIL: $what should have been refused (exit 1), got exit $status" >&2
        exit 1
    fi
    echo "ok: $what refused"
}

expect_value() {
    local what="$1" addr="$2" want="$3"
    local got
    got="$("$CTL" --node "$addr" --shard 0 getk file 2>/dev/null)"
    if [[ "$got" != "$want" ]]; then
        echo "FAIL: $what: wanted $want, got $got" >&2
        exit 1
    fi
    echo "ok: $what serves $want"
}

# ---------------------------------------------------------------------
# Multi-shard phase (scripts/store_smoke.sh --shards): both shard
# groups live on all three nodes (ring:3 on 3 sites), with shard 0
# coordinated by node 0 and shard 1 by node 1 — so killing node 2
# takes one *replica* out of each group while both coordinator funnels
# stay up.
# ---------------------------------------------------------------------
if [[ "$MODE" == "--shards" ]]; then
    KEYS=$(seq 1 24 | sed 's/^/key-/')

    echo "== shard map"
    MAP="$("$CTL" --node "$A" shardmap)"
    echo "$MAP" | sed 's/^/    /'
    for want in "epoch=1" "shards=2" "shard.0.placement=0,1,2" "shard.1.placement=1,2,0"; do
        if ! grep -q "^$want$" <<<"$MAP"; then
            echo "FAIL: shard map missing $want" >&2
            exit 1
        fi
    done

    echo "== keyed puts across both shard groups"
    for key in $KEYS; do
        expect_granted "putk $key" "$CTL" --node "$A" putk "$key" "v1-$key"
    done
    STATUS_A="$("$CTL" --node "$A" status)"
    for field in "shard.map_epoch=1" "shard.count=2" "shard.hosted=0,1"; do
        if ! grep -q "$field" <<<"$STATUS_A"; then
            echo "FAIL: sharded status missing $field:" >&2
            echo "$STATUS_A" >&2
            exit 1
        fi
    done
    # Both groups must actually have committed keyed writes — a broken
    # router that funnels every key to one shard fails here, not at
    # read-back.
    for shard in 0 1; do
        version=$(grep "^shard.$shard.version=" <<<"$STATUS_A" | cut -d= -f2)
        if [[ -z "$version" || "$version" -le 1 ]]; then
            echo "FAIL: shard $shard never committed a keyed write (version=${version:-missing})" >&2
            exit 1
        fi
    done
    echo "ok: both shard groups committed keyed writes"

    echo "== kill -9 node 2 (a replica in BOTH shard groups) mid-stream"
    kill -9 "${PIDS[2]}"
    PIDS[2]=0
    for key in $KEYS; do
        expect_granted "putk $key with node 2 dead" \
            "$CTL" --node "$A" putk "$key" "v2-$key"
    done

    echo "== restarting node 2 from its per-shard data dirs"
    for shard_dir in "$LOG_DIR/data/node2/shard-0" "$LOG_DIR/data/node2/shard-1"; do
        if [[ ! -d "$shard_dir" ]]; then
            echo "FAIL: expected per-shard durable namespace $shard_dir" >&2
            exit 1
        fi
    done
    start_node 2
    wait_up 2 "$C"
    for shard in 0 1; do
        expect_granted "recover shard $shard at restarted node 2" \
            "$CTL" --node "$C" --shard "$shard" recover
    done

    echo "== verifying every key after heal"
    for key in $KEYS; do
        got="$("$CTL" --node "$A" getk "$key" 2>/dev/null)"
        if [[ "$got" != "v2-$key" ]]; then
            echo "FAIL: getk $key: wanted v2-$key, got $got" >&2
            exit 1
        fi
    done
    echo "ok: all 24 keys serve their post-crash values"
    echo "PASS: multi-shard store smoke"
    exit 0
fi

# Healthy cluster: a write lands and replicates.
expect_granted "initial put" "$CTL" --node "$A" --shard 0 putk file hello
expect_value "replicated read at node 2" "$C" hello

# Cut node 2 off (both directions, like a dead link).
echo "== partitioning node 2 away"
"$CTL" --node "$A" deny 2 >/dev/null
"$CTL" --node "$B" deny 2 >/dev/null
"$CTL" --node "$C" deny 0 >/dev/null
"$CTL" --node "$C" deny 1 >/dev/null

# Majority keeps working; the minority must refuse everything.
expect_granted "majority put during partition" "$CTL" --node "$A" --shard 0 putk file world
expect_refused "minority put" "$CTL" --node "$C" --shard 0 putk file poison
expect_refused "minority get" "$CTL" --node "$C" --shard 0 getk file

# Heal, reintegrate, converge.
echo "== healing"
for addr in "$A" "$B" "$C"; do
    "$CTL" --node "$addr" heal-links >/dev/null
done
expect_granted "recover at node 2" "$CTL" --node "$C" --shard 0 recover
for addr in "$A" "$B" "$C"; do
    expect_value "healed read at $addr" "$addr" world
done
"$CTL" --node "$A" --shard 0 status | sed 's/^/    /'

# Crash-restart: kill -9 node 2 while a write stream is in flight,
# let the majority keep committing, then restart node 2 from its data
# directory and require it to converge on the last committed value.
echo "== kill -9 node 2 mid-write stream"
(
    for i in $(seq 1 20); do
        "$CTL" --node "$A" --shard 0 putk file "crash-$i" >/dev/null 2>&1 || true
    done
) &
WRITER=$!
ALL_PIDS+=("$WRITER")
sleep 0.2
kill -9 "${PIDS[2]}"
PIDS[2]=0
wait "$WRITER"
expect_granted "majority put with node 2 dead" "$CTL" --node "$A" --shard 0 putk file survivor

echo "== restarting node 2 from disk"
start_node 2
wait_up 2 "$C"
if [[ ! -f "$LOG_DIR/data/node2/shard-0/wal.log" ]]; then
    echo "FAIL: node 2's one group keeps no log under shard-0/" >&2
    exit 1
fi
STATUS_C="$("$CTL" --node "$C" --shard 0 status)"
for field in "durability.enabled=true" "durability.snapshot_seq=" \
    "durability.wal_records=" "durability.last_fsync="; do
    if ! grep -q "$field" <<<"$STATUS_C"; then
        echo "FAIL: restarted node 2 status missing $field:" >&2
        echo "$STATUS_C" >&2
        exit 1
    fi
done
echo "ok: restarted node 2 reports durability counters"
expect_granted "recover at restarted node 2" "$CTL" --node "$C" --shard 0 recover
for addr in "$A" "$B" "$C"; do
    expect_value "post-crash read at $addr" "$addr" survivor
done

# Loopback throughput sanity check: one dynvote-ctl process, ONE
# persistent pipelined connection, $BENCH_OPS operations — the batch
# path the pipelined transport exists for. (Measured numbers come
# from `benchmark/run.sh`: `peak_ops_per_s` on `put_small`.)
echo "== measuring $BENCH_OPS puts + $BENCH_OPS gets (pipeline $BENCH_PIPELINE, one connection each)"
start_ns=$(date +%s%N)
"$CTL" --node "$A" --shard 0 putk file bench --repeat "$BENCH_OPS" --pipeline "$BENCH_PIPELINE" >/dev/null
put_ns=$(( $(date +%s%N) - start_ns ))
start_ns=$(date +%s%N)
"$CTL" --node "$B" --shard 0 getk file --repeat "$BENCH_OPS" --pipeline "$BENCH_PIPELINE" >/dev/null
get_ns=$(( $(date +%s%N) - start_ns ))

awk -v ops="$BENCH_OPS" -v depth="$BENCH_PIPELINE" -v put_ns="$put_ns" -v get_ns="$get_ns" 'BEGIN {
    put_secs = put_ns / 1e9; get_secs = get_ns / 1e9
    printf "{\n"
    printf "  \"generated_by\": \"scripts/store_smoke.sh (3-node ODV loopback cluster, dynvote-ctl --repeat batch mode)\",\n"
    printf "  \"cluster\": { \"nodes\": 3, \"policy\": \"odv\", \"transport\": \"tcp loopback\", \"durable\": true },\n"
    printf "  \"pipeline_depth\": %d,\n", depth
    printf "  \"put\": { \"ops\": %d, \"secs\": %.3f, \"requests_per_sec\": %.0f },\n", ops, put_secs, ops / put_secs
    printf "  \"get\": { \"ops\": %d, \"secs\": %.3f, \"requests_per_sec\": %.0f },\n", ops, get_secs, ops / get_secs
    printf "  \"note\": \"one persistent connection per command, durable (fsync) daemons; a smoke number; benchmark/run.sh (put_small, peak_ops_per_s) is the measured one\"\n"
    printf "}\n"
}' > "$BENCH_OUT"

echo "== wrote $BENCH_OUT"
cat "$BENCH_OUT"
echo "PASS: store smoke"
