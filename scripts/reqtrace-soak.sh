#!/usr/bin/env bash
# reqtrace-soak.sh — race-detector soak of the request-path tracer: builds
# h2tap-server with -race, boots it with tracing at full sampling and a low
# slow threshold, drives concurrent loadgen client traffic while hammering
# /debug/requests and the merged /debug/trace export from the side (the
# reader/writer interleaving the ring is designed for), then asserts traces
# were retained with the write-path spans present and SIGTERMs into a clean
# drain. Any data race aborts the server and fails the soak.
set -euo pipefail

cd "$(dirname "$0")/.."

DURATION=${REQTRACE_SOAK_DURATION:-5s}

tmp=$(mktemp -d)
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -race -o "$tmp/h2tap-server" ./cmd/h2tap-server
go build -o "$tmp/h2tap-loadgen" ./cmd/h2tap-loadgen

"$tmp/h2tap-server" -addr 127.0.0.1:0 -persist "$tmp/data" -sync-wal \
  -trace-sample 1 -trace-slow 1ms >/dev/null 2>"$tmp/stderr" &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^server: listening on //p' "$tmp/stderr" | head -1)
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "reqtrace-soak: server exited early"; cat "$tmp/stderr"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "reqtrace-soak: listener never came up"; cat "$tmp/stderr"; exit 1; }
echo "reqtrace-soak: serving on http://$addr (race detector on, sampling 1/1)"

# Concurrent /debug readers racing the traced request writers.
( while kill -0 "$pid" 2>/dev/null; do
    curl -sf "http://$addr/debug/requests" >/dev/null 2>&1 || true
    curl -sf "http://$addr/debug/trace" >/dev/null 2>&1 || true
  done ) &
reader=$!

"$tmp/h2tap-loadgen" -client "http://$addr" -conns 16 -rate 800 \
  -duration "$DURATION" -client-mix mixed -json >"$tmp/report.json"
kill "$reader" 2>/dev/null || true
wait "$reader" 2>/dev/null || true

grep -q '"accepted":[1-9]' "$tmp/report.json" || {
  echo "reqtrace-soak: no accepted requests"; cat "$tmp/report.json"; exit 1; }

# Every request was traced: the retention rings must hold finished commits
# with the WAL breakdown attached (sync-wal guarantees fsync spans).
curl -sf "http://$addr/debug/requests" >"$tmp/requests"
grep -q '"name": "commit"' "$tmp/requests" || {
  echo "reqtrace-soak: no commit traces retained"; head -c 2000 "$tmp/requests"; exit 1; }
grep -q '"wal.fsync"' "$tmp/requests" || {
  echo "reqtrace-soak: traces missing wal.fsync spans"; head -c 2000 "$tmp/requests"; exit 1; }

# A clean SIGTERM drain proves no race report aborted the process.
kill -TERM "$pid"
rc=0; wait "$pid" || rc=$?
[ "$rc" = 0 ] || { echo "reqtrace-soak: server exited $rc"; cat "$tmp/stderr"; exit 1; }
grep -q 'WARNING: DATA RACE' "$tmp/stderr" && {
  echo "reqtrace-soak: data race detected"; cat "$tmp/stderr"; exit 1; }
pid=""

echo "reqtrace-soak: ok ($(sed -n 's/.*"accepted":\([0-9]*\).*/\1/p' "$tmp/report.json") traced requests, no races)"
