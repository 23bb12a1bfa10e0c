#!/usr/bin/env bash
# End-to-end smoke test of the TCP deployment path: boot blobseer_serverd
# on an ephemeral loopback port, drive a create/write/append/read/history
# flow through `blobseer_cli --connect`, and assert on the output. A
# second phase starts a log-store daemon with a 2-shard version-manager
# topology, writes blobs on both shards, clones across them, kills and
# restarts the daemon on the same --disk-root, and verifies every blob
# reads back byte-identical (log-engine restart recovery incl. the
# per-shard version-manager journals). A third phase runs a
# content-addressed log-store daemon (--cas): identical data written
# into two blobs stores one physical copy, deleting one blob releases
# only its references, and after a kill/restart the survivor still
# reads back byte-identical while a final delete reclaims the store.
# A fourth phase boots a manager with zero in-process providers plus
# three standalone provider daemons (--provider), SIGKILLs one mid-
# workload, and asserts heartbeat-driven death detection, repair, and
# rejoin rebalancing — with byte-identical readbacks throughout.
# Before any of that, serverd must refuse the removed storage flags
# (--store disk, --store two-tier, --meta-store) and the removed
# --metrics-port (the RPC port answers GET /metrics) with exit status 2.
#
# Usage: e2e_tcp.sh <path-to-blobseer_serverd> <path-to-blobseer_cli>
set -u

SERVERD=$1
CLI=$2
WORK=$(mktemp -d)
SERVER_PID=""
EXTRA_PIDS=""
# At exit: kill every daemon still up, and fail an otherwise passing run
# if any survived — each phase must stop the daemons it started.
on_exit() {
    local rc=$? pid leaked=""
    for pid in $SERVER_PID $EXTRA_PIDS; do
        kill -0 "$pid" 2>/dev/null && leaked="$leaked $pid"
    done
    kill $SERVER_PID $EXTRA_PIDS 2>/dev/null
    rm -rf "$WORK"
    if [ "$rc" -eq 0 ]; then
        if [ -n "$leaked" ]; then
            echo "FAIL: daemon(s) still running at exit:$leaked"
            exit 1
        fi
        echo "PASS"
    fi
}
trap on_exit EXIT

fail() {
    echo "FAIL: $1"
    exit 1
}

# Start serverd with the given extra args; sets SERVER_PID and PORT.
start_serverd() {
    local log=$1
    shift
    # One daemon at a time: overwriting a live SERVER_PID would orphan it
    # past the EXIT trap.
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        fail "start_serverd: previous serverd (pid $SERVER_PID) still running"
    fi
    "$SERVERD" --port 0 --bind 127.0.0.1 "$@" >"$log" 2>&1 &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
        PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$log")
        [ -n "$PORT" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || {
            echo "FAIL: serverd died during startup"
            cat "$log"
            exit 1
        }
        sleep 0.1
    done
    if [ -z "$PORT" ]; then
        echo "FAIL: serverd never reported a port"
        cat "$log"
        exit 1
    fi
}

stop_serverd() {
    kill -TERM "$SERVER_PID" 2>/dev/null
    for _ in $(seq 1 100); do
        kill -0 "$SERVER_PID" 2>/dev/null || { SERVER_PID=""; return 0; }
        sleep 0.1
    done
    fail "serverd did not shut down"
}

# --- removed flags are refused, not remapped --------------------------------

for removed in "--store disk" "--store two-tier" "--meta-store log" \
    "--metrics-port 0"; do
    # shellcheck disable=SC2086  # split "--flag value" into two words
    timeout 10 "$SERVERD" --port 0 --bind 127.0.0.1 \
        --disk-root "$WORK/refused" $removed >"$WORK/refused.log" 2>&1
    RC=$?
    if [ "$RC" -ne 2 ]; then
        cat "$WORK/refused.log"
        fail "serverd $removed exited $RC, want 2"
    fi
done

start_serverd "$WORK/serverd.log" --data-providers 4 --meta-providers 2 \
    --replication 2

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli.log" 2>&1 <<'EOF'
create 65536
write 1 0 200000 7
append 1 131072 8
read 1 1 0 200000 7
stat 1
history 1
quit
EOF
CLI_RC=$?

echo "--- cli output ---"
cat "$WORK/cli.log"

[ "$CLI_RC" -eq 0 ] || fail "cli exited with $CLI_RC"
grep -q "connected to 127.0.0.1:$PORT" "$WORK/cli.log" ||
    fail "no connection banner"
grep -q "blob 1 created" "$WORK/cli.log" || fail "create failed"
grep -q -- "-> version 1" "$WORK/cli.log" || fail "write failed"
grep -q -- "-> version 2" "$WORK/cli.log" || fail "append failed"
grep -q "tag matches" "$WORK/cli.log" || fail "readback mismatch"
grep -q "v2: size 331072, status published" "$WORK/cli.log" ||
    fail "stat mismatch"
grep -c "published" "$WORK/cli.log" >/dev/null || fail "history missing"
grep -q "TAG MISMATCH" "$WORK/cli.log" && fail "corrupted readback"
grep -q "error:" "$WORK/cli.log" && fail "command error in output"

stop_serverd

# --- phase 2: 2-shard VM topology + log-store persistence across restart ----

STORE_ROOT="$WORK/log-root"
SHARDED="--data-providers 4 --meta-providers 2 --replication 2 \
    --store log --disk-root $STORE_ROOT --vm-shards 2"

# shellcheck disable=SC2086
start_serverd "$WORK/serverd2.log" $SHARDED

# Create 6 blobs: the client library spreads creations over both shards
# by consistent hashing, so (deterministically, given the daemon's
# minted client id) both shards end up owning blobs; vm-status asserts
# that below rather than trusting luck.
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli2a.log" 2>&1 <<'EOF'
create 65536
create 65536
create 65536
create 65536
create 65536
create 65536
vm-status
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli2a.log"; fail "create session failed"; }
mapfile -t BLOBS < <(sed -n 's/^blob \([0-9]*\) created.*/\1/p' \
    "$WORK/cli2a.log")
[ "${#BLOBS[@]}" -eq 6 ] || { cat "$WORK/cli2a.log"; fail "expected 6 blobs"; }
grep -q "shard 0 .*: blobs [1-9]" "$WORK/cli2a.log" ||
    { cat "$WORK/cli2a.log"; fail "shard 0 owns no blobs"; }
grep -q "shard 1 .*: blobs [1-9]" "$WORK/cli2a.log" ||
    { cat "$WORK/cli2a.log"; fail "shard 1 owns no blobs"; }

# Write distinct tagged patterns to the first two blobs (one expected on
# each shard), read them back, and clone blob A — one blob-clone to A's
# shard, which resolves, pins and creates the clone there.
A=${BLOBS[0]}
B=${BLOBS[1]}
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli2b.log" 2>&1 <<EOF
write $A 0 200000 7
write $B 0 131072 8
read $A 1 0 200000 7
read $B 1 0 131072 8
clone $A latest
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli2b.log"; fail "pre-restart cli failed"; }
echo "--- pre-restart cli output (2-shard) ---"
cat "$WORK/cli2b.log"
[ "$(grep -c "tag matches" "$WORK/cli2b.log")" -eq 2 ] || {
    fail "pre-restart readback mismatch"
}
CLONE=$(sed -n 's/^clone -> blob \([0-9]*\).*/\1/p' "$WORK/cli2b.log")
[ -n "$CLONE" ] || fail "clone did not report a blob id"
# Blob ids carry their owning shard in the top byte.
[ $((CLONE >> 56)) -eq $((A >> 56)) ] ||
    fail "clone $CLONE is not on the shard of its source $A"
FNV_BEFORE=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli2b.log" | head -1)
[ -n "$FNV_BEFORE" ] || fail "no pre-restart fnv recorded"

# Kill the daemon and restart it on the same root: chunks, metadata and
# BOTH per-shard version-manager journals must all come back from the
# log engines — including the clone's origin alias.
stop_serverd
# shellcheck disable=SC2086
start_serverd "$WORK/serverd3.log" $SHARDED

# Also write after the restart: the new daemon re-mints the same client
# ids, so this exercises the per-boot uid epoch (without it the write's
# chunks would collide with pre-restart uids and read back stale bytes).
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli3.log" 2>&1 <<EOF
read $A 1 0 200000 7
read $B 1 0 131072 8
read $CLONE 0 0 200000
stat $A
write $A 0 200000 9
read $A 2 0 200000 9
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli3.log"; fail "post-restart cli failed"; }

echo "--- post-restart cli output ---"
cat "$WORK/cli3.log"

[ "$(grep -c "tag matches" "$WORK/cli3.log")" -eq 3 ] ||
    fail "post-restart readbacks not byte-identical to their patterns"
FNV_AFTER=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli3.log" | head -1)
[ "$FNV_BEFORE" = "$FNV_AFTER" ] ||
    fail "post-restart bytes differ (fnv $FNV_BEFORE != $FNV_AFTER)"
# The clone's version 0 (an alias into A's v1 tree, restored from A's
# shard's journal) must read the exact pre-restart bytes.
FNV_CLONE=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli3.log" |
    sed -n 3p)
[ "$FNV_BEFORE" = "$FNV_CLONE" ] ||
    fail "clone readback differs from origin (fnv $FNV_BEFORE != $FNV_CLONE)"
grep -q "v1: size 200000, status published" "$WORK/cli3.log" ||
    fail "post-restart stat mismatch"
grep -q -- "-> version 2" "$WORK/cli3.log" ||
    fail "post-restart write failed"
grep -q "TAG MISMATCH" "$WORK/cli3.log" && fail "corrupted readback"
grep -q "error:" "$WORK/cli3.log" && fail "command error after restart"

stop_serverd

# --- phase 3: content-addressed dedup + refcounted GC across restart --------

CAS_ROOT="$WORK/cas-root"
CASARGS="--data-providers 4 --meta-providers 2 --replication 1 \
    --store log --disk-root $CAS_ROOT --cas"

# shellcheck disable=SC2086
start_serverd "$WORK/serverd4.log" $CASARGS

# Two blobs, byte-identical payloads: blob D's write keys its pattern
# off blob C (trailing pattern-blob argument), so the daemon sees the
# same 4 chunks twice. The second write must check-hit on every chunk
# and transfer nothing.
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli4.log" 2>&1 <<'EOF'
create 65536
create 65536
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli4.log"; fail "cas create session failed"; }
mapfile -t CASBLOBS < <(sed -n 's/^blob \([0-9]*\) created.*/\1/p' \
    "$WORK/cli4.log")
[ "${#CASBLOBS[@]}" -eq 2 ] || { cat "$WORK/cli4.log"; fail "expected 2 cas blobs"; }
C=${CASBLOBS[0]}
D=${CASBLOBS[1]}

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli5.log" 2>&1 <<EOF
write $C 0 262144 5
write $D 0 262144 5 $C
read $C 1 0 262144 5
read $D 1 0 262144
dedup-stats
delete $C
dedup-stats
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli5.log"; fail "cas write session failed"; }
echo "--- cas dedup cli output ---"
cat "$WORK/cli5.log"

grep -q "tag matches" "$WORK/cli5.log" || fail "cas readback mismatch"
FNV_C=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli5.log" | sed -n 1p)
FNV_D=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli5.log" | sed -n 2p)
[ -n "$FNV_C" ] && [ "$FNV_C" = "$FNV_D" ] ||
    fail "the two cas blobs are not byte-identical ($FNV_C != $FNV_D)"
# One physical copy: 8 logical chunks uploaded, 4 check-hits, exactly
# one blob's worth of bytes on the wire.
grep -q "client cas: 8 chunks, 4 dedup hits, 262144 bytes skipped, \
262144 bytes sent" "$WORK/cli5.log" ||
    fail "second write was not fully deduplicated"
grep -q "deleted blob $C: 1 versions, released 4 chunk refs" \
    "$WORK/cli5.log" || fail "delete did not release blob C's references"
# After the delete the shared chunks drop to refcount 1 (blob D): the
# store must hold exactly one copy, nothing reclaimed yet.
grep -q "stored: *4 chunks, 262144 bytes" "$WORK/cli5.log" ||
    fail "delete of one sharer changed the physical copy count"
grep -q "error:" "$WORK/cli5.log" && fail "command error in cas phase"

# Kill and restart on the same root: chunks, refcounts and metadata all
# come back from the log engines. The survivor must read byte-identical
# and GC must not have over-collected the shared chunks.
stop_serverd
# shellcheck disable=SC2086
start_serverd "$WORK/serverd5.log" $CASARGS

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli6.log" 2>&1 <<EOF
read $D 1 0 262144
dedup-stats
delete $D
dedup-stats
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli6.log"; fail "post-restart cas cli failed"; }
echo "--- post-restart cas output ---"
cat "$WORK/cli6.log"

FNV_D2=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli6.log" | sed -n 1p)
[ "$FNV_D" = "$FNV_D2" ] ||
    fail "cas survivor differs after restart (fnv $FNV_D != $FNV_D2)"
grep -q "stored: *4 chunks, 262144 bytes" "$WORK/cli6.log" ||
    fail "restart lost or over-collected the surviving copy"
# Deleting the survivor drops the last references: the store empties and
# the reclaim counters account for every byte.
grep -q "deleted blob $D: 1 versions, released 4 chunk refs" \
    "$WORK/cli6.log" || fail "delete did not release blob D's references"
grep -q "stored: *0 chunks, 0 bytes" "$WORK/cli6.log" ||
    fail "deleting the last reference did not empty the store"
grep -q "4 chunks / 262144 bytes reclaimed" "$WORK/cli6.log" ||
    fail "gc reclaim counters did not account for the deleted chunks"
grep -q "error:" "$WORK/cli6.log" && fail "command error after cas restart"

# One 8 MiB content chunk: its write is a single chunk-put frame past
# 4 MiB through the reactor (the provider re-hashes it before storing),
# and its read-back one whole-chunk reply.
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli7.log" 2>&1 <<'EOF'
create 8388608
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli7.log"; fail "large cas create failed"; }
E=$(sed -n 's/^blob \([0-9]*\) created.*/\1/p' "$WORK/cli7.log")
[ -n "$E" ] || { cat "$WORK/cli7.log"; fail "large cas blob not created"; }
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli8.log" 2>&1 <<EOF
write $E 0 8388608 9
read $E 1 0 8388608 9
dedup-stats
delete $E
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli8.log"; fail "large cas session failed"; }
echo "--- large cas chunk output ---"
cat "$WORK/cli8.log"
grep -q "tag matches" "$WORK/cli8.log" || fail "large cas readback mismatch"
grep -q "client cas: 1 chunks, 0 dedup hits, 0 bytes skipped, \
8388608 bytes sent" "$WORK/cli8.log" ||
    fail "large cas chunk did not travel as one put"
grep -q "error:" "$WORK/cli8.log" && fail "command error in large cas write"
stop_serverd

# --- phase 4: provider daemons, heartbeat death, repair, rejoin -------------

# Manager with no in-process data providers: the data plane is three
# standalone provider daemons that join over the wire, heartbeat, and
# get repaired by the manager's background worker when one dies.
start_serverd "$WORK/serverd6.log" --data-providers 0 --meta-providers 2 \
    --replication 3 --heartbeat-timeout-ms 1500 --repair-interval-ms 200
MGR_PORT=$PORT

# Start a provider daemon joined to the manager; sets DP_PID and DP_NODE
# (the node id the manager minted — repair-status rows key off it).
start_provider() {
    local log=$1 name=$2
    "$SERVERD" --provider --join "127.0.0.1:$MGR_PORT" --name "$name" \
        --bind 127.0.0.1 --port 0 --beat-interval-ms 200 \
        >"$log" 2>&1 &
    DP_PID=$!
    EXTRA_PIDS="$EXTRA_PIDS $DP_PID"
    DP_NODE=""
    for _ in $(seq 1 100); do
        DP_NODE=$(sed -n 's/.*node \([0-9]*\) (.*listening on.*/\1/p' \
            "$log")
        [ -n "$DP_NODE" ] && break
        kill -0 "$DP_PID" 2>/dev/null || {
            echo "FAIL: provider $name died during startup"
            cat "$log"
            exit 1
        }
        sleep 0.1
    done
    if [ -z "$DP_NODE" ]; then
        echo "FAIL: provider $name never joined"
        cat "$log"
        exit 1
    fi
}

start_provider "$WORK/dpA.log" dpA
DPA_PID=$DP_PID
DPA_NODE=$DP_NODE
start_provider "$WORK/dpB.log" dpB
DPB_PID=$DP_PID
DPB_NODE=$DP_NODE
start_provider "$WORK/dpC.log" dpC
DPC_NODE=$DP_NODE

# Poll `repair-status` until every grep pattern matches its output.
poll_repair_status() {
    local tries=$1
    shift
    local ok pat
    for _ in $(seq 1 "$tries"); do
        "$CLI" --connect "127.0.0.1:$MGR_PORT" >"$WORK/rs.log" 2>&1 <<'EOF'
repair-status
quit
EOF
        ok=1
        for pat in "$@"; do
            grep -q -- "$pat" "$WORK/rs.log" || { ok=0; break; }
        done
        [ "$ok" -eq 1 ] && return 0
        sleep 0.2
    done
    echo "FAIL: repair-status never converged to: $*"
    cat "$WORK/rs.log"
    exit 1
}

poll_repair_status 50 \
    "provider $DPA_NODE: alive" \
    "provider $DPB_NODE: alive" \
    "provider $DPC_NODE: alive"

# Replication-3 write: with three providers every chunk lands on all of
# them, so losing any single daemon must stay invisible to readers.
"$CLI" --connect "127.0.0.1:$MGR_PORT" >"$WORK/cli7.log" 2>&1 <<'EOF'
create 65536
write 1 0 200000 7
read 1 1 0 200000 7
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli7.log"; fail "repl-3 write session failed"; }
echo "--- repl-3 write output ---"
cat "$WORK/cli7.log"
grep -q "blob 1 created" "$WORK/cli7.log" || fail "repl-3 create failed"
grep -q "tag matches" "$WORK/cli7.log" || fail "repl-3 readback mismatch"
FNV_V1=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli7.log" | head -1)
[ -n "$FNV_V1" ] || fail "no repl-3 fnv recorded"

# SIGKILL provider A: no goodbye, and its RAM store dies with it. The
# manager must notice via missed heartbeats; readers must not.
kill -9 "$DPA_PID"

# Mid-outage: v1 still reads byte-identical off the survivors, and a
# new write fails over to the two live providers.
"$CLI" --connect "127.0.0.1:$MGR_PORT" >"$WORK/cli8.log" 2>&1 <<'EOF'
read 1 1 0 200000 7
write 1 0 200000 9
read 1 2 0 200000 9
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli8.log"; fail "mid-outage session failed"; }
echo "--- mid-outage output ---"
cat "$WORK/cli8.log"
[ "$(grep -c "tag matches" "$WORK/cli8.log")" -eq 2 ] ||
    fail "mid-outage readback mismatch"
FNV_V1_OUTAGE=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli8.log" |
    sed -n 1p)
[ "$FNV_V1" = "$FNV_V1_OUTAGE" ] ||
    fail "mid-outage v1 bytes differ (fnv $FNV_V1 != $FNV_V1_OUTAGE)"
grep -q "error:" "$WORK/cli8.log" && fail "client-visible error mid-outage"

# The missed-beat sweep must declare A dead (timeout 1500ms).
poll_repair_status 50 "provider $DPA_NODE: dead"

# Rejoin under the same name: the daemon reclaims its node id, announces
# an empty inventory (the kill wiped its RAM store), and the manager
# re-replicates every under-replicated chunk onto it — v1's chunks lost
# with the store AND v2's chunks written while it was away. Converged
# means: backlog drained, nothing under-replicated, and the rejoined
# provider actually holds chunks again.
start_provider "$WORK/dpA2.log" dpA
[ "$DP_NODE" = "$DPA_NODE" ] ||
    fail "rejoin minted a new node id ($DP_NODE != $DPA_NODE)"
poll_repair_status 100 \
    "provider $DPA_NODE: alive" \
    "repair: backlog 0 " \
    "under-replicated 0" \
    "provider $DPA_NODE: alive.* [1-9][0-9]* chunks"

echo "--- post-rejoin repair gauges ---"
cat "$WORK/rs.log"
if [ -n "${REPAIR_GAUGE_OUT:-}" ]; then
    cp "$WORK/rs.log" "$REPAIR_GAUGE_OUT"
fi

# The repaired copies must be real: kill provider B (again with data
# loss) and read both versions back — every chunk now needs the copies
# the repair worker pushed to the rejoined A.
kill -9 "$DPB_PID"
"$CLI" --connect "127.0.0.1:$MGR_PORT" >"$WORK/cli9.log" 2>&1 <<'EOF'
read 1 1 0 200000 7
read 1 2 0 200000 9
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli9.log"; fail "post-repair session failed"; }
echo "--- post-repair readback output ---"
cat "$WORK/cli9.log"
[ "$(grep -c "tag matches" "$WORK/cli9.log")" -eq 2 ] ||
    fail "post-repair readback mismatch"
FNV_V1_FINAL=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli9.log" |
    sed -n 1p)
[ "$FNV_V1" = "$FNV_V1_FINAL" ] ||
    fail "post-repair v1 bytes differ (fnv $FNV_V1 != $FNV_V1_FINAL)"
grep -q "error:" "$WORK/cli9.log" && fail "client-visible error post-repair"

stop_serverd

# Stop the provider daemons too (SIGTERM, as stop_serverd). Their pids
# stay in EXTRA_PIDS, so the exit check catches any that survive.
kill -TERM $EXTRA_PIDS 2>/dev/null
for pid in $EXTRA_PIDS; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
done

# --- phase 5: observability — /metrics scrape + end-to-end trace tree -------

start_serverd "$WORK/serverd7.log" --data-providers 4 --meta-providers 2 \
    --replication 2 --log-level info

# GET a path from the daemon's RPC port, which also answers HTTP; curl
# when available, raw /dev/tcp otherwise (HTTP/1.0 + Connection: close
# reads to EOF).
http_get() {
    local path=$1 out=$2
    if command -v curl >/dev/null 2>&1; then
        curl -sf --max-time 10 "http://127.0.0.1:$PORT$path" >"$out"
    else
        exec 9<>"/dev/tcp/127.0.0.1/$PORT" || return 1
        printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&9
        sed -e '1,/^\r*$/d' <&9 >"$out"
        exec 9<&- 9>&-
    fi
}

# Drive a traced session through a FIFO: the shell prints the trace id
# after each traced op, the harness reads it back mid-session and asks
# the same session for the span tree (client halves live in the CLI
# process, server halves come over kTraceDump).
mkfifo "$WORK/cli_in"
"$CLI" --connect "127.0.0.1:$PORT" --trace \
    >"$WORK/cli10.log" 2>&1 <"$WORK/cli_in" &
CLI_PID=$!
exec 3>"$WORK/cli_in"
echo "create 65536" >&3
echo "write 1 0 200000 7" >&3
echo "read 1 1 0 200000 7" >&3
TRACE_ID=""
for _ in $(seq 1 100); do
    TRACE_ID=$(sed -n 's/^trace id \([0-9a-f]*\)$/\1/p' "$WORK/cli10.log" |
        head -1)
    [ -n "$TRACE_ID" ] && break
    kill -0 "$CLI_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$TRACE_ID" ]; then
    exec 3>&-
    cat "$WORK/cli10.log"
    fail "traced write never printed a trace id"
fi
echo "trace $TRACE_ID" >&3
echo "quit" >&3
exec 3>&-
wait "$CLI_PID" || { cat "$WORK/cli10.log"; fail "traced cli failed"; }

echo "--- traced cli output ---"
cat "$WORK/cli10.log"
grep -q "tag matches" "$WORK/cli10.log" || fail "traced readback mismatch"
# The span tree: a rooted client write span whose children include the
# chunk path, each child carrying both halves (client round-trip +
# server handle time) merged under one trace id.
grep -q "write  *client\[node" "$WORK/cli10.log" ||
    fail "span tree has no client write root"
grep -q "chunk-put .*client\[node .*server\[node" "$WORK/cli10.log" ||
    fail "span tree missing a merged chunk-put span"
grep -q "assign .*server\[node" "$WORK/cli10.log" ||
    fail "span tree missing the version-manager assign span"
grep -q "error:" "$WORK/cli10.log" && fail "command error in traced phase"

# Scrape after the workload so the per-op histograms are non-empty.
http_get /metrics "$WORK/metrics.scrape" || fail "GET /metrics failed"
echo "--- /metrics scrape: $(wc -l <"$WORK/metrics.scrape") series lines ---"
assert_series() {
    grep -q "$1" "$WORK/metrics.scrape" || {
        cat "$WORK/metrics.scrape"
        fail "scrape missing series: $1"
    }
}
assert_series '^rpc_server_requests_total{op="chunk-put"} [1-9]'
assert_series '^rpc_server_latency_us_bucket{op="chunk-put",le="+Inf"} [1-9]'
assert_series '^rpc_server_latency_us_count{op="get-version"} [1-9]'
assert_series '^vm_publishes_total{shard="0"} [1-9]'
assert_series '^vm_blobs{shard="0"} [1-9]'
assert_series '^pm_provider_alive{node="[0-9]*"} 1$'
assert_series '^repair_under_replicated 0$'
assert_series '^pm_placements_total [1-9]'
assert_series '^provider_chunks_stored{'
assert_series '^trace_spans_recorded_total [1-9]'
# Unknown paths must 404, not crash the daemon.
http_get /nope "$WORK/metrics.404" 2>/dev/null
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died on a 404 request"

# CI artifacts: the raw scrape and the traced span tree.
if [ -n "${METRICS_SCRAPE_OUT:-}" ]; then
    cp "$WORK/metrics.scrape" "$METRICS_SCRAPE_OUT"
fi
if [ -n "${TRACE_DUMP_OUT:-}" ]; then
    cp "$WORK/cli10.log" "$TRACE_DUMP_OUT"
fi

stop_serverd

# --- phase 6: compressed tiering — three-tier store + disposable file cache

# A 1 MiB RAM cache against a 16 MiB working set: >10x RAM, so almost
# every re-read must be served by the compressed file cache (or, after
# we delete it, by the log engine) — never incorrectly.
start_serverd "$WORK/serverd8.log" --data-providers 2 --meta-providers 1 \
    --store three-tier-log --disk-root "$WORK/root6" \
    --file-cache-dir "$WORK/fc6" --file-cache-mb 32 --ram-cache-mb 1 \
    --compress-cold

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli11.log" 2>&1 <<'EOF'
create 65536
write 1 0 16777216 5
read 1 1 0 16777216 5
read 1 1 0 16777216 5
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli11.log"; fail "three-tier session failed"; }
echo "--- three-tier cli output ---"
cat "$WORK/cli11.log"
[ "$(grep -c "tag matches" "$WORK/cli11.log")" -eq 2 ] ||
    fail "three-tier readback not byte-identical"
FNV_TIER=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli11.log" | head -1)
[ -n "$FNV_TIER" ] || fail "no three-tier fnv recorded"
grep -q "error:" "$WORK/cli11.log" && fail "client-visible three-tier error"

# The RAM tier cannot hold the set, so demotions must have reached disk.
find "$WORK/fc6" -name 'cache-*.dat' 2>/dev/null | grep -q . ||
    fail "file cache never spilled to disk"

# Delete the cache directory out from under the live daemon: the cache
# is disposable by contract, so the only acceptable outcome is a slower
# byte-identical re-read (served by the engine and re-promoted), with
# no client-visible error and no daemon crash.
rm -rf "$WORK/fc6"
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli12.log" 2>&1 <<'EOF'
read 1 1 0 16777216 5
read 1 1 0 16777216 5
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli12.log"; fail "post-deletion session failed"; }
echo "--- post-cache-deletion cli output ---"
cat "$WORK/cli12.log"
[ "$(grep -c "tag matches" "$WORK/cli12.log")" -eq 2 ] ||
    fail "post-deletion readback not byte-identical"
FNV_TIER_AFTER=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli12.log" |
    head -1)
[ "$FNV_TIER" = "$FNV_TIER_AFTER" ] ||
    fail "bytes differ after cache deletion (fnv $FNV_TIER != $FNV_TIER_AFTER)"
grep -q "error:" "$WORK/cli12.log" && fail "client-visible error after deletion"
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died after cache deletion"

stop_serverd

# --- phase 7: epoll reactor — connection burst on fixed io threads ----------

# Two event-loop threads and a 2 s idle timeout. A 256-connection burst
# of raw idle sockets parks on the reactor while a concurrent cli
# session streams a full read through the crowd; the idle sweep then
# reaps the burst, reads stay byte-identical, and the daemon shuts
# down cleanly.
start_serverd "$WORK/serverd9.log" --data-providers 2 --meta-providers 1 \
    --io-threads 2 --idle-timeout-ms 2000

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli13.log" 2>&1 <<'EOF'
create 65536
write 1 0 4194304 6
read 1 1 0 4194304 6
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli13.log"; fail "reactor write session failed"; }
echo "--- reactor cli output ---"
cat "$WORK/cli13.log"
grep -q "tag matches" "$WORK/cli13.log" || fail "reactor readback mismatch"
FNV_REACTOR=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli13.log" | head -1)
[ -n "$FNV_REACTOR" ] || fail "no reactor fnv recorded"

# 256 idle connections, each held open by a sleeping subshell.
BURST_PIDS=""
for _ in $(seq 1 256); do
    ( exec 3<>"/dev/tcp/127.0.0.1/$PORT" && sleep 8 ) 2>/dev/null &
    BURST_PIDS="$BURST_PIDS $!"
done
sleep 0.5

# A full read runs THROUGH the parked burst on the same two loops.
"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli14.log" 2>&1 <<'EOF'
read 1 1 0 4194304 6
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli14.log"; fail "read under burst failed"; }
grep -q "tag matches" "$WORK/cli14.log" || fail "burst readback mismatch"

# The idle timeout reaps the burst underneath the sleeping holders
# while the daemon stays up.
sleep 3
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died under connection burst"
kill $BURST_PIDS 2>/dev/null
wait $BURST_PIDS 2>/dev/null

"$CLI" --connect "127.0.0.1:$PORT" >"$WORK/cli15.log" 2>&1 <<'EOF'
read 1 1 0 4194304 6
quit
EOF
[ $? -eq 0 ] || { cat "$WORK/cli15.log"; fail "post-burst session failed"; }
echo "--- post-burst cli output ---"
cat "$WORK/cli15.log"
grep -q "tag matches" "$WORK/cli15.log" || fail "post-burst readback mismatch"
FNV_AFTER_BURST=$(sed -n 's/.*fnv=\([0-9a-f]*\).*/\1/p' "$WORK/cli15.log" |
    head -1)
[ "$FNV_REACTOR" = "$FNV_AFTER_BURST" ] ||
    fail "bytes differ after burst (fnv $FNV_REACTOR != $FNV_AFTER_BURST)"
grep -q "error:" "$WORK/cli15.log" && fail "client-visible error after burst"

stop_serverd

exit 0
