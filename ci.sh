#!/bin/sh
# Tier-1 CI: the doc-table check, plain build + tests, then the text route verbs driven end to
# end through call_xrl, then the repo benchmark's self-test,
# then an address/undefined-sanitized build + tests, then a chaos pass (the integration + chaos suites rerun
# with seeded XRL fault injection — 5% drops and 0-10 ms delays on every
# dispatch — so the reliable call contract is exercised on every run),
# then a sanitized kill-chaos pass (component kills composed with the
# ambient drop/delay plan, under ASan+UBSan: restart teardown is exactly
# where lifetime bugs live), then a bench smoke pass (every benchmark
# binary runs for a token interval — catches crashes and assertion
# failures without waiting for real measurements). Any failing step
# fails the script.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== doc tables match their committed rows =="
# Reads only committed files: EXPERIMENTS.md's §5.1 memory table must
# agree with BENCH_memory.json (0.1 MB, 1 byte/route).
python3 bench/check_memory_table.py

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== scripting pair end to end (call_xrl) =="
# call_xrl is the one user of the text route verbs: every in-tree sender
# uses rib/1.0/add_routes_bulk and fea/1.0/add_routes4_bulk. Drive the
# rib/1.0 pair with explicit XRLs; fail unless every call answers OKAY
# and the lookup returns the added prefix.
XRL_OUT="$(build/examples/call_xrl \
    'finder://rib/rib/1.0/add_route?protocol:txt=static&net:ipv4net=10.20.0.0/16&nexthop:ipv4=192.0.2.9&metric:u32=1' \
    'finder://rib/rib/1.0/lookup_route4?addr:ipv4=10.20.3.4' \
    'finder://fea/fea/1.0/get_fib_size' \
    'finder://rib/rib/1.0/delete_route?protocol:txt=static&net:ipv4net=10.20.0.0/16')"
echo "$XRL_OUT"
if [ "$(echo "$XRL_OUT" | grep -c '^  OKAY')" -ne 4 ]; then
    echo "call_xrl: not every call answered OKAY"
    exit 1
fi
if ! echo "$XRL_OUT" | grep -q 'found:bool=true&net:ipv4net=10.20.0.0%2f16&'; then
    echo "call_xrl: lookup_route4 did not return 10.20.0.0/16"
    exit 1
fi

echo "== repo benchmark self-test =="
# perfbench compiles ../src on its own and calls RouteBatch::encode/decode
# and the XRL handles directly, so an API change that breaks it must fail
# here rather than in a later benchmark run. Runs all four workloads at a
# small size (~25 s).
python3 perfbench/selftest.py

echo "== sanitized build (address,undefined) =="
cmake -B build-asan -S . -DXRP_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== thread-sanitized build (TSan, cross-thread suites) =="
# The threading seams — EventLoop post/wake, the xring SPSC rings, the
# multi-producer journal, ComponentThread lifecycle, and the full
# ThreadedRouter — run under TSan. Scoped to the suites that actually
# cross threads; the virtual-clock single-thread suites add nothing
# under TSan but cost 5-20x wall clock.
cmake -B build-tsan -S . -DXRP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_threads test_xring
(cd build-tsan && ctest -R 'Xring|Threads|ComponentThread|InternAffinity' --output-on-failure -j "$JOBS")

echo "== chaos pass (seeded fault injection) =="
# Fixed seed: a failure here replays exactly. The shrunk attempt timeout
# keeps real-clock retries fast; virtual-clock tests ignore it.
(cd build && \
    XRP_FAULT_SEED=1777 \
    XRP_FAULT_DROP_PERMILLE=50 \
    XRP_FAULT_DELAY_MS=10 \
    XRP_CALL_ATTEMPT_TIMEOUT_MS=50 \
    ctest -R 'Chaos|RouterManager' --output-on-failure -j "$JOBS")

echo "== kill-chaos pass (sanitized, kills + ambient drops) =="
# The KillChaos suite kills component channels mid-flight while the env
# plan above keeps dropping/delaying everything else. Run under the
# sanitized build: supervisor restarts destroy and rebuild whole
# components, so this is the pass that would catch use-after-frees in
# the teardown/resync choreography.
(cd build-asan && \
    XRP_FAULT_SEED=1777 \
    XRP_FAULT_DROP_PERMILLE=50 \
    XRP_FAULT_DELAY_MS=10 \
    XRP_CALL_ATTEMPT_TIMEOUT_MS=50 \
    ctest -R 'KillChaos' --output-on-failure -j "$JOBS")

echo "== bench smoke + scenario smoke + BENCH schema validation =="
# Every bench binary emits a machine-readable BENCH_<name>.json via the
# shared reporter; route them to a scratch dir (so token smoke numbers
# never clobber a committed trajectory) and validate every file against
# the xrp-bench-v1 schema — malformed or empty output fails CI.
# bench_spf checks itself: it exits non-zero if any incremental SPF case
# ends with routes that differ from a fresh full run. The
# scenario smoke cell (4x4 grid, link-flap schedule) is fully
# deterministic: virtual clock, fixed topology, no wall-clock anywhere,
# and the runner itself exits non-zero if the cell fails to re-converge.
BENCH_OUT="$(mktemp -d)"
trap 'rm -rf "$BENCH_OUT"' EXIT
for b in build/bench/bench_*; do
    [ -x "$b" ] || continue
    echo "-- $b"
    XRP_BENCH_DIR="$BENCH_OUT" "$b" --benchmark_min_time=0.01 >/dev/null
done
echo "-- build/bench/scenario_runner --smoke"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/scenario_runner --smoke >/dev/null
# The ECMP member-kill chaos cell is a hard gate, not just a smoke run:
# the binary exits non-zero unless killing one member of the 4-way group
# moves exactly that member's flow share (zero survivor flinch) and
# reviving it restores the original placement bit-for-bit.
echo "-- build/bench/bench_ecmp (ECMP member-kill chaos cell)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_ecmp >/dev/null
build/bench/validate_bench "$BENCH_OUT"/BENCH_ecmp.json
# Bulk-download smoke at a real (if modest) scale: 100k routes through
# the batch and per-route paths plus a short churn replay, then schema +
# percentile/CDF validation of the emitted trajectory. This is the gate
# that keeps the bulk stage API's wire path honest between full 1M runs.
echo "-- build/bench/bench_route_latency (100k bulk-download smoke)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_route_latency \
    --download-only --download-routes=100000 --churn-bursts=20
build/bench/validate_bench "$BENCH_OUT"/BENCH_route_latency.json
build/bench/validate_bench "$BENCH_OUT"/BENCH_*.json

echo "== multi-process smoke (fork/exec, SIGKILL, hitless upgrade) =="
# Real processes, real kernel: the plain build's test_process suite forks
# xrp_component binaries over stcp — SIGKILL a live bgp, assert the
# supervisor restarts it with zero FIB flinch, run one hitless binary
# upgrade, and verify a SIGKILLed manager takes its components with it
# (no orphan leak). Then the upgrade bench at a quick size as a hard
# gate: exit status is non-zero unless 0 routes lost and 0 FIB deletes.
(cd build && ctest -R 'ProcessHost|KillChaos.RealSigkill|KillChaos.DeadPeer|Upgrade.Hitless|Supervisor.CleanExits|OrphanCleanup' \
    --output-on-failure -j "$JOBS")
echo "-- build/bench/bench_restart --quick --mode=upgrade (hitless gate)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_restart --quick --mode=upgrade
build/bench/validate_bench "$BENCH_OUT"/BENCH_restart.json

echo "CI OK"
