#!/usr/bin/env bash
# server-smoke.sh — end-to-end smoke test of the network service layer:
# builds h2tap-server and h2tap-loadgen, boots the server on an ephemeral
# port with a persist dir, drives two seconds of client load with network
# faults injected, checks /healthz and a one-shot commit, then SIGTERMs the
# server and asserts a clean graceful drain — and that the drained state is
# durable across a restart.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  [ -n "${pid2:-}" ] && kill "$pid2" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/h2tap-server" ./cmd/h2tap-server
go build -o "$tmp/h2tap-loadgen" ./cmd/h2tap-loadgen

server_args=(-addr 127.0.0.1:0 -persist "$tmp/data" -drain-timeout 10s)

wait_addr() { # <stderr-file> <pid>
  local a=""
  for _ in $(seq 1 100); do
    a=$(sed -n 's/^server: listening on //p' "$1" | head -1)
    [ -n "$a" ] && { echo "$a"; return 0; }
    kill -0 "$2" 2>/dev/null || { echo "server-smoke: server exited early" >&2; cat "$1" >&2; return 1; }
    sleep 0.1
  done
  echo "server-smoke: listener never came up" >&2; cat "$1" >&2; return 1
}

"$tmp/h2tap-server" "${server_args[@]}" >/dev/null 2>"$tmp/stderr" &
pid=$!
addr=$(wait_addr "$tmp/stderr" "$pid")
echo "server-smoke: serving on http://$addr"

# Probe: /healthz must answer 200 "ok: ..." on a fresh database.
code=$(curl -s -o "$tmp/health" -w '%{http_code}' "http://$addr/healthz")
[ "$code" = 200 ] && grep -q '^ok: ' "$tmp/health" || {
  echo "server-smoke: bad initial /healthz ($code)"; cat "$tmp/health"; exit 1; }

# One interactive transaction round trip: begin → apply → commit, and the
# commit must surface an MVTO timestamp.
txid=$(curl -sf -X POST "http://$addr/v1/tx/begin" | sed -n 's/.*"tx":"\([^"]*\)".*/\1/p')
[ -n "$txid" ] || { echo "server-smoke: tx begin gave no tx id"; exit 1; }
curl -sf -X POST "http://$addr/v1/tx/apply" \
  -d "{\"tx\":\"$txid\",\"ops\":[{\"op\":\"add-node\",\"label\":\"Smoke\",\"props\":{\"s\":1}}]}" >/dev/null
commit=$(curl -sf -X POST "http://$addr/v1/tx/commit" -d "{\"tx\":\"$txid\"}")
echo "$commit" | grep -q '"ts":[1-9]' || {
  echo "server-smoke: commit carried no timestamp: $commit"; exit 1; }

# Two seconds of concurrent load with the fault layer on: slow-loris,
# mid-request disconnects, malformed and oversized bodies, skewed
# deadlines. The client exits non-zero if nothing was accepted.
"$tmp/h2tap-loadgen" -client "http://$addr" -conns 8 -rate 400 \
  -duration 2s -client-mix mixed -faults -json >"$tmp/report.json"
grep -q '"accepted":[1-9]' "$tmp/report.json" || {
  echo "server-smoke: no accepted requests"; cat "$tmp/report.json"; exit 1; }
echo "server-smoke: client report: $(cat "$tmp/report.json")"

# The server must still be healthy after the fault storm.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")
[ "$code" = 200 ] || { echo "server-smoke: /healthz=$code after faults"; exit 1; }

# Record the committed state, then SIGTERM: graceful drain must exit 0
# and log the clean-drain line.
nodes=$(curl -sf "http://$addr/v1/stats" | sed -n 's/.*"LiveNodes":\([0-9]*\).*/\1/p')
[ -n "$nodes" ] && [ "$nodes" -gt 0 ] || { echo "server-smoke: no live nodes before drain"; exit 1; }
kill -TERM "$pid"
rc=0; wait "$pid" || rc=$?
[ "$rc" = 0 ] || { echo "server-smoke: server exited $rc on SIGTERM"; cat "$tmp/stderr"; exit 1; }
grep -q 'server: clean drain in' "$tmp/stderr" || {
  echo "server-smoke: no clean-drain log"; cat "$tmp/stderr"; exit 1; }
pid=""

# Restart on the same persist dir: every drained commit must be recovered.
"$tmp/h2tap-server" "${server_args[@]}" >/dev/null 2>"$tmp/stderr2" &
pid2=$!
addr2=$(wait_addr "$tmp/stderr2" "$pid2")
nodes2=$(curl -sf "http://$addr2/v1/stats" | sed -n 's/.*"LiveNodes":\([0-9]*\).*/\1/p')
[ "$nodes2" = "$nodes" ] || {
  echo "server-smoke: recovered $nodes2 nodes, drained with $nodes"; exit 1; }
kill -TERM "$pid2"; wait "$pid2" || true
pid2=""

echo "server-smoke: ok (healthz, tx round trip, faulted load, clean drain, $nodes nodes durable)"
