#!/usr/bin/env bash
# Chaos smoke test, used by the CI chaos-smoke job and runnable locally:
# boot exrquyd with deterministic fault injection armed on /query
# (-faults: forced 500s, connection resets, truncated bodies, injected
# latency) plus the watchdog, then drive it with loadgen's retrying +
# hedging client and assert the run ends clean — retries happened, the
# final outcomes were all 200/429, and the daemon still drains
# gracefully. This is the order-indifference claim exercised end to end:
# every retried or hedged query returns the same bytes, so a faulty wire
# is survivable without correctness loss.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/exrquyd" ./cmd/exrquyd
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== boot with faults armed"
"$workdir/exrquyd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -xmark 0.005 -watchdog 5s \
    -faults 'seed=7,err500=11,reset=17,truncate=23:48,latency=5:2ms' \
    >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: daemon exited during boot"; cat "$workdir/daemon.log"; exit 1; }
    sleep 0.1
done
[ -s "$workdir/addr" ] || { echo "daemon never wrote addr file"; cat "$workdir/daemon.log"; exit 1; }
base="http://$(cat "$workdir/addr")"
healthy=""
for _ in $(seq 1 100); do
    if curl -sf --max-time 2 "$base/healthz" >/dev/null 2>&1; then
        healthy=1
        break
    fi
    sleep 0.1
done
[ -n "$healthy" ] || { echo "FAIL: /healthz not answering"; cat "$workdir/daemon.log"; exit 1; }
grep -q 'fault injection armed' "$workdir/daemon.log" || { echo "FAIL: daemon did not log the chaos warning"; exit 1; }
echo "   $base (chaos armed)"

echo "== retrying load against the faulty wire"
"$workdir/loadgen" -url "$base" -qps 40 -clients 8 -duration 5s \
    -queries 1,2,8,11 -retries 6 -retry-budget 2 -hedge -hedge-delay 10ms \
    | tee "$workdir/loadgen.out"

# loadgen exits non-zero when any final outcome was neither 200 nor 429,
# so reaching here already proves the retries absorbed every fault.
resilience_line=$(grep '^resilience:' "$workdir/loadgen.out")
retries=$(echo "$resilience_line" | sed -E 's/^resilience: ([0-9]+) retries.*/\1/')
[ "$retries" -ge 1 ] || { echo "FAIL: no retries under an armed fault plan: $resilience_line"; exit 1; }
echo "   ok: $resilience_line"

echo "== faults actually fired"
injected=$(curl -s "$base/metrics" | awk '$1 == "faults_injected_total" {print $2}')
[ -n "$injected" ] && [ "$injected" -ge 1 ] || { echo "FAIL: faults_injected_total = ${injected:-missing}"; exit 1; }
echo "   ok: $injected faults injected"

echo "== graceful shutdown still works after chaos"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "FAIL: daemon still running 10s after SIGTERM"
    exit 1
fi
wait "$daemon_pid" && drain_rc=0 || drain_rc=$?
[ "$drain_rc" -eq 0 ] || { echo "FAIL: daemon exited $drain_rc"; cat "$workdir/daemon.log"; exit 1; }
grep -q 'drained, bye' "$workdir/daemon.log" || { echo "FAIL: no drain confirmation"; cat "$workdir/daemon.log"; exit 1; }

echo "chaos smoke: all checks passed"
