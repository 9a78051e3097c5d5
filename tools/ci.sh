#!/usr/bin/env bash
# CI driver: build and run the test suite three times — an optimized
# Release configuration, an ASan/UBSan configuration, and a ThreadSanitizer
# configuration covering the threaded execution-layer tests (TSan cannot be
# combined with ASan, hence the separate tree; RAHTM_SANITIZE, see the
# top-level CMakeLists.txt). Run from anywhere; build trees live under the
# repo root as build-ci-release/, build-ci-sanitize/ and build-ci-tsan/.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local filter="$1"; shift
  local dir="$repo/build-ci-$name"
  echo "==== [$name] configure"
  cmake -B "$dir" -S "$repo" "$@"
  echo "==== [$name] build"
  cmake --build "$dir" -j "$jobs"
  echo "==== [$name] ctest"
  local extra=()
  if [[ -n "$filter" ]]; then extra+=(-R "$filter"); fi
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" "${extra[@]}"
}

run_config release "" -DCMAKE_BUILD_TYPE=Release
run_config sanitize "" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRAHTM_SANITIZE=address,undefined
# TSan pass: only the suites that exercise the thread pool and the
# parallel pipeline paths (the serial suites add nothing under TSan).
# test_simnet covers the sharded parallel simulator (spin-barrier cycle
# loop, mailbox handoffs, gang scheduling on a shared pool); test_serve the
# cross-request artifact cache and the scheduler's serving threads;
# test_delta_eval annealing restarts on the pool over one shared route
# table; test_mem the memory registry and its budget, which pool workers
# and the watchdog thread share. test_merge is serial today; it rides
# along so the merge kernel is covered once its candidate scoring moves
# onto the pool. The threaded
# golden mapfile runs drive the whole threaded pipeline (restarts on the
# pool, the refine seed pair, the watchdog thread) through rahtm_map.
run_config tsan 'test_exec|test_subproblem|test_rahtm|test_flight_recorder|test_simnet|test_serve|test_delta_eval|test_merge|test_mem|tool_rahtm_map_golden_.*_t4' \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRAHTM_SANITIZE=thread

# Benchmark-regression gate: emit the smoke ledger at the small scale,
# validate the schema, then compare against the committed baseline (the
# check re-runs the suite at the scale recorded in the baseline's
# fingerprint, so the env here only governs the freshly emitted ledger).
# Mapper and simulator are deterministic and single-threaded in the
# suites, so any metric drift beyond the thresholds is a real change.
echo "==== [bench-smoke] ledger + regression gate"
bench_bin="$repo/build-ci-release/tools/rahtm_bench"
bench_out="$repo/build-ci-release/bench-smoke"
mkdir -p "$bench_out"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites smoke --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_smoke.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_smoke.json" --check

# Refinement/annealing micro-ledger: quality metrics (mcl, hop_bytes) are
# gated; the swaps/sec and probes/sec throughput columns are recorded for
# trend-watching but never fail the build (infinite default thresholds).
echo "==== [bench-refine-micro] ledger + regression gate"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites refine_micro --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_refine_micro.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_refine_micro.json" --check

# Forensics stage: the deliberately misbehaving fixture must leave valid
# rahtm.postmortem/v1 artifacts behind for every escalation path (watchdog
# stall dump, SIGSEGV handler, SIGABRT handler), and the always-on
# instrumentation must stay inside its <=2% overhead budget (gated via the
# committed obs_overhead baseline, whose overhead_ratio is pinned at 1.0 so
# the 2% threshold reads as an absolute budget).
echo "==== [forensics] post-mortem artifacts + overhead gate"
fixture="$repo/build-ci-release/tools/rahtm_forensics_fixture"
pm_dir="$repo/build-ci-release/forensics"
rm -rf "$pm_dir" && mkdir -p "$pm_dir"

"$fixture" --mode stall --dir "$pm_dir" --deadline-sec 0.2
rc=0; "$fixture" --mode crash --dir "$pm_dir" 2>/dev/null || rc=$?
[[ "$rc" -eq 139 ]] || { echo "crash fixture: expected SIGSEGV (139), got $rc"; exit 1; }
rc=0; "$fixture" --mode abort --dir "$pm_dir" 2>/dev/null || rc=$?
[[ "$rc" -eq 134 ]] || { echo "abort fixture: expected SIGABRT (134), got $rc"; exit 1; }

for reason in stall sigsegv sigabrt; do
  artifact="$pm_dir/postmortem.$reason.json"
  [[ -s "$artifact" ]] || { echo "missing forensics artifact: $artifact"; exit 1; }
  "$bench_bin" --validate "$artifact"
done

RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites obs_overhead --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_obs_overhead.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_obs_overhead.json" --check

# Simulator gate: the threaded cycle sim must reproduce the serial results
# bit for bit (determinism_mismatches, baseline 0 → any mismatch fails),
# and the flow-level analytic mode must stay within its committed relative
# error on cycles/MCL (flow_*_rel_err). Wall-clock/speedup columns are
# recorded for trend-watching only — they depend on the host's core count.
echo "==== [simnet-micro] determinism + fidelity gate"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites simnet_micro --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_simnet_micro.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_simnet_micro.json" --check

# Memory-accounting gate: per-subsystem accounted peaks are pure functions
# of the workload (capacity-based accounting) and gated tight (5%); the
# accounting overhead ratio carries the same <=2% budget as the forensics
# layer (baseline pinned at 1.0, so the threshold reads as an absolute
# budget). rss_coverage and the wall times ride along ungated.
echo "==== [mem-micro] subsystem footprint + accounting overhead gate"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites mem_micro --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_mem_micro.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_mem_micro.json" --check

# Serve gates. Smoke: a two-request stdin batch through the daemon must
# produce schema-valid NDJSON responses (same --validate entry point as the
# ledgers) with cache hits recorded on the warm request. Suite: determinism
# (served vs one-shot mapping mismatches, baseline 0) and cache-warm misses
# (baseline 0 — a warm request that rebuilds artifacts fails the gate) are
# gated; the cache hit/miss/bytes counters, latency quantiles and
# requests/sec are reported ungated.
echo "==== [serve] batch smoke + suite gate"
serve_bin="$repo/build-ci-release/tools/rahtm_serve"
printf '%s\n%s\n' \
  '{"schema":"rahtm.serve.request/v1","id":"cold","machine":"2x2x2","concentration":2,"benchmark":"CG","leaf_milp":4}' \
  '{"schema":"rahtm.serve.request/v1","id":"warm","machine":"2x2x2","concentration":2,"benchmark":"CG","leaf_milp":4}' \
  | "$serve_bin" --stdin --threads 2 > "$bench_out/serve-smoke.ndjson"
"$bench_bin" --validate "$bench_out/serve-smoke.ndjson"
if tail -n 1 "$bench_out/serve-smoke.ndjson" | grep -q '"route_hits":0,'; then
  echo "serve smoke: warm request recorded no cache hits"; exit 1
fi

RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites serve --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_serve.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_serve.json" --check

# Route-table gate: every route of a 64-node table must match the
# uniform-minimal enumeration bit for bit
# (table_parity_mismatches, baseline 0); the 512-node paper-scale solve
# keeps its quality (mcl / hop_bytes) and peak_rss_mb; and a 5120-node
# table keeps its entry count and size. The solve's route_table peak and
# the build time ride along ungated.
echo "==== [route-micro] table parity + 512-node solve + 5120-node table"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  "$bench_bin" --suites route_micro --out "$bench_out"
"$bench_bin" --validate "$bench_out/BENCH_route_micro.json"
"$bench_bin" --baseline "$repo/bench/baseline/BENCH_route_micro.json" --check

# Leak gate: the smoke suite under the ASan tree with LSan on. The
# registries are deliberately leaked singletons (crash handlers read them
# during teardown) — LSan treats globals-reachable memory as live, so this
# stage fails only on genuinely unreachable allocations.
echo "==== [leak-gate] smoke suite under ASan+LSan"
asan_bench="$repo/build-ci-sanitize/tools/rahtm_bench"
leak_out="$repo/build-ci-sanitize/bench-smoke"
mkdir -p "$leak_out"
RAHTM_NODES=32 RAHTM_CONC=2 RAHTM_SIM_ITERS=1 \
  ASAN_OPTIONS=detect_leaks=1 \
  "$asan_bench" --suites smoke --out "$leak_out"

echo "==== CI passed (release + sanitize + tsan + bench-smoke + refine-micro + forensics + simnet-micro + mem-micro + serve + route-micro + leak-gate)"
