#!/usr/bin/env bash
# Perf-regression gate: run the bench suite (scripts/run_bench_suite.sh),
# then `coolstat check` the merged BENCH_results.json against the committed
# BENCH_baseline.json with per-metric tolerance bands:
#
#   *wall_ms, *_per_s   wall-clock / throughput — wide band (different
#                       machines, CI noise, best-of-3 jitter);
#   *_us                repair-latency percentiles — report-only (tolerance
#                       -1 means exempt): tail quantiles over a few dozen
#                       microsecond-scale samples swing 10x between
#                       identical-code runs, so gating them only flaps.
#                       Gate them on demand with an explicit
#                       `coolstat check --metric repair_p95_us=<pct>`;
#   perf repair_moves   bench_scheduler_perf's moves per repair — report-only,
#                       read beside repair_wall_ms for the cost of a move
#                       (bench_failure_resilience's repair_moves stays gated);
#   everything else     deterministic at fixed seed (utilities, oracle
#                       calls, deaths, brownouts, delivered fractions,
#                       collision/retry counts) — tight band, effectively
#                       "did the algorithm change";
#   steady allocs       *steady_alloc_calls — zero tolerance: the exact heap
#                       allocation count of one warmed (arena-backed)
#                       schedule() call is deterministic, and any drift
#                       means scratch leaked off the arena onto the heap;
#   acceptance flags    bench_delivered_coverage's graceful / retries_billed
#                       / deterministic booleans — zero tolerance: a flipped
#                       flag is a broken protocol invariant, not noise;
#   svc invariants      the service benches' svc_acked_lost / svc_recovery_ok
#                       / svc_crash_free / svc_shed_engaged — zero tolerance:
#                       lost acked work, a recovery mismatch, a daemon crash,
#                       or shedding failing to engage is a robustness bug.
#                       Their timing-coupled counters (sheds, WAL appends,
#                       retries, degrade mix) vary with scheduling noise and
#                       are report-only.
#   obs invariants      the introspection plane's svc_stats_live /
#                       svc_stats_reconciled / svc_trace_present — zero
#                       tolerance: a stats verb that stops answering under
#                       overload, self-reported counters that disagree with
#                       external measurement, or an ack without its trace id
#                       is an observability bug. The daemon's own p99
#                       (svc_hist_p99_ms) shares the wide timing band; the
#                       rung mix is report-only, and so are the throughput
#                       flood's p50s (external and self-reported): with
#                       every request submitted up front, the median is
#                       queue-position-dominated and swings ~10x between
#                       identical-code runs. The closed-loop soak's p50
#                       stays gated.
#
# Exit 0 when within tolerance, 1 on violation (coolstat check's contract),
# 2 on harness errors. The baseline's git SHA always differs from the
# candidate's, so provenance mismatch stays a warning (no
# --require-provenance here).
#
# Usage: scripts/check_perf_regress.sh [baseline.json]
#   COOL_BUILD_DIR   build tree holding bench/ and tools/ (default: build)
#
# To refresh the baseline after an intentional perf change:
#   scripts/run_bench_suite.sh BENCH_baseline.json && git add BENCH_baseline.json
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${COOL_BUILD_DIR:-${repo_root}/build}"
baseline="${1:-${repo_root}/BENCH_baseline.json}"
coolstat="${build_dir}/tools/coolstat"

if [ ! -f "${baseline}" ]; then
  echo "missing baseline ${baseline} — create with:" >&2
  echo "  scripts/run_bench_suite.sh ${baseline}" >&2
  exit 2
fi

results="${repo_root}/BENCH_results.json"
COOL_BUILD_DIR="${build_dir}" "${repo_root}/scripts/run_bench_suite.sh" "${results}"

# Absolute speed floor for the exact greedy at n=200. The relative bands
# below compare against the *current* baseline, which gets regenerated
# whenever perf intentionally moves — so they cannot express "stay at
# least 2x faster than the pre-kernel implementation". This check does.
# The pre-kernel scalar path made the naive scan's T·n(n+1)/2 = 80400
# oracle calls at 146156041/s; the floor is half its wall time,
# greedy_wall_ms <= 80400 / (2 * legacy) s, about 0.275 ms. The floor is
# on wall time, not calls per second, because the cached greedy skips most
# of those calls (DESIGN.md section 16). Override the legacy rate with
# COOL_LEGACY_ORACLE_PER_S (set 0 to skip, e.g. on qemu or a loaded box).
legacy_per_s="${COOL_LEGACY_ORACLE_PER_S:-146156041}"
echo
echo "== greedy speed floor (n=200, <= half the legacy scan's ${legacy_per_s}/s wall time) =="
python3 - "${results}" "${legacy_per_s}" <<'PY'
import json, sys
results_path, legacy = sys.argv[1], float(sys.argv[2])
if legacy <= 0:
    print("floor check skipped (COOL_LEGACY_ORACLE_PER_S <= 0)")
    sys.exit(0)
with open(results_path) as f:
    doc = json.load(f)
wall_ms = None
for bench in doc.get("benches", []):
    if bench.get("bench") == "bench_scheduler_perf":
        wall_ms = bench.get("metrics", {}).get("greedy_wall_ms")
if wall_ms is None:
    print("FAIL: bench_scheduler_perf greedy_wall_ms missing", file=sys.stderr)
    sys.exit(1)
naive_calls = 4 * 200 * 201 // 2  # T * n(n+1)/2 at n=200, T=4
ceiling_ms = 1000.0 * naive_calls / (2.0 * legacy)
print(f"greedy_wall_ms = {wall_ms:.4f} (ceiling {ceiling_ms:.4f})")
if wall_ms > ceiling_ms:
    print(f"FAIL: {wall_ms:.4f} ms is over half the legacy scalar scan's time", file=sys.stderr)
    sys.exit(1)
PY

echo
echo "== coolstat check vs $(basename "${baseline}") =="
if "${coolstat}" check "${results}" "${baseline}" \
  --tol 2 \
  --metric '*wall_ms=400' \
  --metric '*_per_s=400' \
  --metric '*_us=-1' \
  --metric 'bench_scheduler_perf.repair_moves=-1' \
  --metric 'bench_scheduler_perf_n800.repair_moves=-1' \
  --metric '*lazy_speedup=400' \
  --metric '*steady_alloc_calls=0' \
  --metric '*control_energy_j=10' \
  --metric '*adaptive_gain_pct=10' \
  --metric '*_energy_j_loss30=10' \
  --metric '*graceful=0' \
  --metric '*retries_billed=0' \
  --metric '*deterministic=0' \
  --metric '*svc_acked_lost=0' \
  --metric '*svc_recovery_ok=0' \
  --metric '*svc_crash_free=0' \
  --metric '*svc_shed_engaged=0' \
  --metric '*svc_kills=0' \
  --metric '*svc_p50_ms=-1' \
  --metric '*svc_p99_ms=400' \
  --metric '*svc_soak_p50_ms=400' \
  --metric '*svc_soak_p99_ms=400' \
  --metric '*svc_shed=-1' \
  --metric '*svc_retries=-1' \
  --metric '*svc_degraded_floor=-1' \
  --metric '*svc_wal_appends=-1' \
  --metric '*svc_hist_p50_ms=-1' \
  --metric '*svc_hist_p99_ms=400' \
  --metric '*svc_rung0=-1' \
  --metric '*svc_rung1=-1' \
  --metric '*svc_rung2=-1' \
  --metric '*svc_stats_live=0' \
  --metric '*svc_stats_reconciled=0' \
  --metric '*svc_trace_present=0'; then
  echo "OK: no perf regression against the committed baseline"
else
  status=$?
  echo "FAIL: perf regression (or missing metric) vs the committed baseline" >&2
  exit "${status}"
fi
