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

# Absolute throughput floor for the vectorized oracle hot path. The
# relative bands below compare against the *current* baseline, which gets
# regenerated whenever perf intentionally moves — so they cannot express
# "stay at least 2x faster than the pre-kernel implementation". This check
# does: greedy_oracle_calls_per_s (n=200, threads=1) must hold >= 2x the
# last scalar-path baseline. Override the reference point with
# COOL_LEGACY_ORACLE_PER_S (set 0 to skip, e.g. on qemu or a loaded box).
legacy_per_s="${COOL_LEGACY_ORACLE_PER_S:-146156041}"
echo
echo "== oracle throughput floor (>= 2x legacy ${legacy_per_s}/s) =="
python3 - "${results}" "${legacy_per_s}" <<'PY'
import json, sys
results_path, legacy = sys.argv[1], float(sys.argv[2])
if legacy <= 0:
    print("floor check skipped (COOL_LEGACY_ORACLE_PER_S <= 0)")
    sys.exit(0)
with open(results_path) as f:
    doc = json.load(f)
rate = None
for bench in doc.get("benches", []):
    if bench.get("bench") == "bench_scheduler_perf":
        rate = bench.get("metrics", {}).get("greedy_oracle_calls_per_s")
if rate is None:
    print("FAIL: bench_scheduler_perf greedy_oracle_calls_per_s missing", file=sys.stderr)
    sys.exit(1)
floor = 2.0 * legacy
print(f"greedy_oracle_calls_per_s = {rate:.0f} (floor {floor:.0f})")
if rate < floor:
    print(f"FAIL: {rate:.0f}/s is below 2x the legacy scalar path", file=sys.stderr)
    sys.exit(1)
PY

echo
echo "== coolstat check vs $(basename "${baseline}") =="
if "${coolstat}" check "${results}" "${baseline}" \
  --tol 2 \
  --metric '*wall_ms=400' \
  --metric '*_per_s=400' \
  --metric '*_us=-1' \
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
