#include "core/greedy.h"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "obs/obs.h"
#include "submodular/function.h"
#include "util/arena.h"

namespace cool::core {

namespace detail {

std::vector<std::unique_ptr<sub::EvalState>>& prepare_slot_states(
    const Problem& problem, const PlannerContext& ctx, std::size_t slots,
    std::vector<std::unique_ptr<sub::EvalState>>& local) {
  auto& states = ctx.scratch_states ? *ctx.scratch_states : local;
  if (states.size() != slots) {
    states.clear();
    states.reserve(slots);
    for (std::size_t t = 0; t < slots; ++t)
      states.push_back(problem.slot_utility().make_state());
  } else {
    // reset() is contractually equivalent to a fresh make_state(); the
    // ResetReuse tests pin this down bit-for-bit.
    for (auto& state : states) state->reset();
  }
  return states;
}

ScanBest scan_argmax(const sub::FusedSlotEvaluator& fused,
                     const std::vector<std::unique_ptr<sub::EvalState>>& states,
                     const std::size_t* ids, std::size_t len, double* gains) {
  // Fold the T row winners in slot order: max gain, then lowest index,
  // then lowest slot. Monotone utilities make every gain >= 0, so the
  // first row always replaces the -1 sentinel.
  ScanBest best{-1.0, 0, 0};
  const auto consider = [&](double gain, std::size_t index, std::size_t t) {
    if (gain > best.gain || (gain == best.gain && index < best.index))
      best = ScanBest{gain, index, t};
  };
  const std::size_t T = states.size();
  if (fused) {
    const sub::EvalState* state_ptrs[sub::FusedSlotEvaluator::kMaxSlots];
    for (std::size_t t = 0; t < T; ++t) state_ptrs[t] = states[t].get();
    double row_gain[sub::FusedSlotEvaluator::kMaxSlots];
    std::size_t row_arg[sub::FusedSlotEvaluator::kMaxSlots];
    fused.fn(state_ptrs, T, ids, len, row_gain, row_arg);
    for (std::size_t t = 0; t < T; ++t) consider(row_gain[t], row_arg[t], t);
    return best;
  }
  for (std::size_t t = 0; t < T; ++t) {
    states[t]->marginal_batch({ids, len}, {gains, len});
    // Linear first-max scan — the fused kernel's tie-break.
    std::size_t arg = 0;
    for (std::size_t i = 1; i < len; ++i)
      if (gains[i] > gains[arg]) arg = i;
    consider(gains[arg], arg, t);
  }
  return best;
}

}  // namespace detail

GreedyResult GreedyScheduler::schedule(const Problem& problem,
                                       const PlannerContext& ctx) const {
  COOL_SPAN("greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "GreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  // One incremental evaluator per slot; slot states grow as sensors land.
  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // All scan scratch comes from the planner arena (a call-local one when the
  // caller did not provide a warmed arena). A warmed arena serves every
  // later schedule() call with zero heap allocations — the property
  // scripts/check_profile.sh gates.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();
  // Unplaced sensors in ascending order: each slot row's first strict
  // maximum is then its lowest-sensor maximum, the serial tie-break.
  std::size_t* ids = arena.allocate_array<std::size_t>(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = v;
  // One gain row for the unfused fallback, reused slot by slot.
  double* gains = arena.allocate_array<double>(n);

  // Fused slot-row scan-and-argmax (resolved once per call): when every
  // slot state is the flat detection oracle over one utility, each
  // candidate's coverage row is walked a single time for all T slots and
  // the per-slot argmax falls out of the same pass. Gains are bit-identical
  // either way, so both paths pick the same candidate.
  const sub::FusedSlotEvaluator fused = sub::resolve_fused(slot_state);

  for (std::size_t step = 0; step < n; ++step) {
    // Deadline poll between placement steps: a step either fully lands or
    // never starts, so cancellation leaves no half-applied placement.
    if (ctx.cancel) ctx.cancel->checkpoint();
    const std::size_t len = n - step;
    const detail::ScanBest best =
        detail::scan_argmax(fused, slot_state, ids, len, gains);
    const std::size_t sensor = ids[best.index];
    result.oracle_calls += len * T;
    // Drop the winner, keeping the remaining ids ascending.
    std::memmove(ids + best.index, ids + best.index + 1,
                 (len - best.index - 1) * sizeof(std::size_t));
    slot_state[best.slot]->add(sensor);
    result.schedule.set_active(sensor, best.slot);
    result.steps.push_back(GreedyStep{sensor, best.slot, best.gain});
  }
  // Published once per schedule, not per marginal query, so the enabled-
  // but-idle cost stays off the O(n^2 T) inner loop.
  COOL_METRIC_ADD("greedy.schedules", 1);
  COOL_METRIC_ADD("greedy.oracle_calls", result.oracle_calls);
  COOL_METRIC_OBSERVE("greedy.oracle_calls_per_schedule", result.oracle_calls);
  return result;
}

}  // namespace cool::core
