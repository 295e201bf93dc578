#!/usr/bin/env bash
# Soak harness for the serve daemon (docs/serve.md).  Run it against an
# ASan+UBSan build in CI, or a plain build locally:
#
#   tools/serve_soak.sh [BUILD_DIR] [CLEAN_SECONDS] [FAULT_SECONDS]
#
# Three phases against one long-running daemon:
#
#   clean  -- a well-formed 1000-agent load; nothing may be rejected and
#             predictions must be served.
#   fault  -- a malformed-heavy load that is then kill -9'd mid-run; every
#             typed rejection counter must move, and after the massacre the
#             daemon must still answer queries (degraded, with stated
#             reasons) and expose the damage in its Prometheus scrape.
#   drain  -- SIGTERM; the daemon must exit 0 and leave a final RunReport.
#
# Any assertion failure exits nonzero with a FAIL line naming the phase.
set -euo pipefail

BUILD_DIR=${1:-build}
CLEAN_SECONDS=${2:-5}
FAULT_SECONDS=${3:-5}

CLI="$BUILD_DIR/tools/forktail"
LOADGEN="$BUILD_DIR/tools/forktail_serve_loadgen"
WORK=$(mktemp -d)
DAEMON_PID=""

fail() {
  echo "FAIL [$1] $2" >&2
  exit 1
}

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

[[ -x "$CLI" ]] || fail setup "$CLI not built"
[[ -x "$LOADGEN" ]] || fail setup "$LOADGEN not built"

# ---------------------------------------------------------------- start-up
# --drain-throttle-us slows the shard workers a little so the unthrottled
# fault-phase load overflows the rings: overload shedding becomes a
# deterministic part of the soak instead of a machine-speed lottery.
"$CLI" serve examples/serve_soak.json \
  --port-file "$WORK/ports.txt" \
  --metrics-out "$WORK/final_report.json" \
  --drain-throttle-us 20 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$WORK/ports.txt" ]] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail setup "daemon died before binding"
  sleep 0.1
done
[[ -s "$WORK/ports.txt" ]] || fail setup "daemon never wrote its port file"
read -r UDP_PORT TCP_PORT < "$WORK/ports.txt"
echo "soak: daemon pid $DAEMON_PID, udp $UDP_PORT, tcp $TCP_PORT"

scrape() {
  python3 - "$TCP_PORT" <<'EOF'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
data = b""
while chunk := s.recv(65536):
    data += chunk
sys.stdout.write(data.decode())
EOF
}

# ------------------------------------------------------------- clean phase
echo "soak: clean phase (${CLEAN_SECONDS}s)"
"$LOADGEN" --udp-port "$UDP_PORT" --tcp-port "$TCP_PORT" \
  --agents 1000 --batch 64 --seconds "$CLEAN_SECONDS" \
  --out "$WORK/clean.json" \
  || fail clean "clean-phase load fails the loadgen's own report checks"

grep -q '"served": true' "$WORK/clean.json" \
  || fail clean "predictions were not served under well-formed load"
grep -q '"rejected_total": 0' "$WORK/clean.json" \
  || fail clean "well-formed load moved a rejection counter"

# ------------------------------------------------------------- fault phase
echo "soak: fault phase (${FAULT_SECONDS}s, then kill -9)"
"$LOADGEN" --udp-port "$UDP_PORT" --tcp-port "$TCP_PORT" \
  --agents 1000 --batch 64 --seconds 600 --malformed-fraction 0.25 \
  --out "$WORK/fault.json" &
LOADGEN_PID=$!
sleep "$FAULT_SECONDS"
kill -9 "$LOADGEN_PID" 2>/dev/null || true
wait "$LOADGEN_PID" 2>/dev/null || true

kill -0 "$DAEMON_PID" 2>/dev/null \
  || fail fault "daemon died under malformed load"

# The whole fleet just vanished; once the liveness timeout passes the
# daemon must still answer -- degraded, with stated reasons.
sleep 6
PROBE=$("$LOADGEN" --probe --tcp-port "$TCP_PORT") \
  || fail fault "daemon stopped answering queries after kill -9"
echo "probe: $PROBE"
echo "$PROBE" | grep -Eq '"degraded": ?true' \
  || fail fault "post-massacre prediction is not marked degraded"
echo "$PROBE" | grep -Eq '"(stale_agents|recent_shed|underfilled_windows)"' \
  || fail fault "degraded prediction states no reason"

SCRAPE=$(scrape)
for metric in forktail_serve_wire_rejected_truncated \
              forktail_serve_wire_rejected_bad_magic \
              forktail_serve_wire_rejected_checksum \
              forktail_serve_wire_rejected_bad_sample \
              forktail_serve_wire_rejected_unknown_node \
              forktail_serve_wire_rejected_unknown_service \
              forktail_serve_wire_rejected_stale_timestamp; do
  echo "$SCRAPE" | grep -E "^$metric [1-9]" >/dev/null \
    || fail fault "scrape shows no rejections under $metric"
done
echo "$SCRAPE" | grep -E '^forktail_serve_shed [1-9]' >/dev/null \
  || fail fault "throttled load produced no overload shedding"
echo "$SCRAPE" | grep -E '^forktail_serve_agents_stale [1-9]' >/dev/null \
  || fail fault "killed agents were never marked stale"

# -------------------------------------------------------------- drain phase
echo "soak: drain phase (SIGTERM)"
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  fail drain "daemon ignored SIGTERM"
fi
wait "$DAEMON_PID" || fail drain "daemon exited nonzero on SIGTERM"
DAEMON_PID=""

[[ -s "$WORK/final_report.json" ]] \
  || fail drain "no final RunReport was written"
grep -q 'forktail.run_report.v1' "$WORK/final_report.json" \
  || fail drain "final report is not a versioned RunReport"
grep -q '"serve.samples"' "$WORK/final_report.json" \
  || fail drain "final report carries no serve counters"

echo "soak: OK (clean + fault + drain phases all held)"
