#!/usr/bin/env bash
# relayd_soak: the ffrelayd daemon smoke (ctest -L daemon).
#
# Derives a soak variant of examples/relay.ff — fault injection on the
# relay path (eval/faults, corruption scaled to the channel-attenuated
# signal so the decode survives), a longer packet train, and the sink
# replaced by a listening SocketSink — then runs the daemon against it and
# exercises every runtime surface of one live session:
#
#   * a receiver client starts the session and decodes the stream (crc=OK)
#   * control reads and a write land MID-STREAM (read relay.scrubbed,
#     read faults.corrupted, write src_cfo.set_cfo <same value>)
#   * a second receiver during the session is rejected with FFERR busy
#   * periodic ff-metrics-v1 snapshots are written atomically (>= 2 by
#     the time the session ends) and carry the serve.* counters
#   * `shutdown` over the control socket ends the daemon with exit 0
#
# Usage: relayd_soak.sh <ffrelayd> <ffrelay_client> <relay.ff> <work_dir>
set -euo pipefail

FFRELAYD=$1
CLIENT=$2
GRAPH=$3
WORK=$4

DIR=$(mktemp -d "$WORK/relayd_soak.XXXXXX")
DPID=""
RPID=""
cleanup() {
  [ -n "$RPID" ] && kill "$RPID" 2>/dev/null || true
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

OUT_EP="unix:$DIR/out.sock"
CTL_EP="unix:$DIR/ctl.sock"
SNAP="$DIR/metrics.json"

# The soak graph: more packets (a few seconds of streaming so the control
# traffic genuinely lands mid-session), faults on the S->R path, socket sink.
sed -e "s|^sink :: AccumulatorSink;|sink :: SocketSink(endpoint=$OUT_EP, listen=true);|" \
    -e "s|packets=78|packets=300|" \
    -e "s|chan_sr -> relay;|chan_sr -> faults;\nfaults -> relay;|" \
    -e "/^add :: Add2;/i\\
faults :: Fault(corrupt=0.02, corrupt_amplitude=0.001, seed=7);" \
    "$GRAPH" > "$DIR/soak.ff"
grep -q "faults :: Fault" "$DIR/soak.ff" || { echo "FAIL: graph rewrite lost the Fault element"; exit 1; }
grep -q "SocketSink" "$DIR/soak.ff" || { echo "FAIL: graph rewrite lost the SocketSink"; exit 1; }

"$FFRELAYD" --graph "$DIR/soak.ff" --control "$CTL_EP" \
            --snapshot "$SNAP" --snapshot-period 0.2 > "$DIR/daemon.log" 2>&1 &
DPID=$!

# Wait for the control plane to come up: the client's connect retries with
# a backoff from 100 us, and the daemon accepts as soon as it is constructed.
"$CLIENT" --ctl "$CTL_EP" --cmd ping --timeout 10 > /dev/null 2>&1 \
  || { echo "FAIL: control socket never came up"; cat "$DIR/daemon.log"; exit 1; }
"$CLIENT" --ctl "$CTL_EP" --cmd stats | grep -q "sessions_started=0" \
  || { echo "FAIL: daemon not idle at start"; exit 1; }

# The receiver connection admits the session; decode must report crc=OK.
"$CLIENT" --recv "$OUT_EP" --decode > "$DIR/recv.log" 2>&1 &
RPID=$!

ok=""
for _ in $(seq 200); do
  if "$CLIENT" --ctl "$CTL_EP" --cmd stats | grep -q "active=1"; then ok=1; break; fi
  sleep 0.05
done
[ -n "$ok" ] || { echo "FAIL: session never started"; cat "$DIR/daemon.log"; exit 1; }

# Mid-stream control traffic: two reads and a (value-preserving) write.
"$CLIENT" --ctl "$CTL_EP" \
          --cmd "read relay.scrubbed" \
          --cmd "read faults.corrupted" \
          --cmd "read sink.connected" \
          --cmd "write src_cfo.set_cfo 4036.5099826284422" > "$DIR/ctl.log" \
  || { echo "FAIL: mid-stream control commands failed"; cat "$DIR/ctl.log" "$DIR/daemon.log"; exit 1; }

# Admission control: a second receiver during the session must be refused
# with a structured FFERR line (client exits 3 on FFERR).
if "$CLIENT" --recv "$OUT_EP" --timeout 5 > "$DIR/reject.log" 2>&1; then
  echo "FAIL: second concurrent client was not rejected"; exit 1
fi
grep -q "busy" "$DIR/reject.log" \
  || { echo "FAIL: rejection carried no busy code"; cat "$DIR/reject.log"; exit 1; }

# Drain the session: the receiver must exit 0 with a clean decode.
if ! wait "$RPID"; then
  echo "FAIL: receiver exited non-zero"; cat "$DIR/recv.log" "$DIR/daemon.log"; exit 1
fi
RPID=""
grep -q "crc=OK" "$DIR/recv.log" \
  || { echo "FAIL: no crc=OK in receiver output"; cat "$DIR/recv.log"; exit 1; }

ok=""
for _ in $(seq 100); do
  if "$CLIENT" --ctl "$CTL_EP" --cmd stats | grep -q "sessions_completed=1"; then ok=1; break; fi
  sleep 0.05
done
[ -n "$ok" ] || { echo "FAIL: session never reaped as completed"; exit 1; }

# Snapshot validity: schema tag, serve.* counters, and at least 2 periodic
# writes recorded by the time the session ended.
"$CLIENT" --ctl "$CTL_EP" --cmd snapshot > /dev/null
grep -q '"schema":"ff-metrics-v1"' "$SNAP" || { echo "FAIL: snapshot lacks schema tag"; exit 1; }
grep -q "serve.sessions_started" "$SNAP" || { echo "FAIL: snapshot lacks serve counters"; exit 1; }
written=$(sed -n 's/.*"name":"serve.snapshots_written","value":\([0-9]*\).*/\1/p' "$SNAP")
[ -n "$written" ] && [ "$written" -ge 2 ] \
  || { echo "FAIL: expected >= 2 periodic snapshots, counter says '${written:-missing}'"; exit 1; }

# Clean shutdown through the control plane.
"$CLIENT" --ctl "$CTL_EP" --cmd shutdown > /dev/null
if ! wait "$DPID"; then
  echo "FAIL: daemon exited non-zero after shutdown"; cat "$DIR/daemon.log"; exit 1
fi
DPID=""

echo "relayd soak OK: session decoded crc=OK with live control traffic," \
     "admission rejection, $written periodic snapshots, clean shutdown"
