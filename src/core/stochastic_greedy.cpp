#include "core/stochastic_greedy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "submodular/function.h"
#include "util/arena.h"

namespace cool::core {

namespace {

struct ScanBest {
  double gain = -1.0;
  std::size_t index = 0;  // position in `ids`, not a sensor id
  std::size_t slot = 0;
};

// The (candidate, slot) argmax over a sample: the maximum of
// states[t]->marginal(ids[i]) over i < len and every slot t, ties broken on
// the lowest (i, t) pair — the first maximum of the i-outer/t-inner scan.
// `fused` comes from sub::resolve_fused(states); `gains` is len doubles of
// scratch for the unfused fallback. Requires len >= 1.
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

}  // namespace

StochasticGreedyScheduler::StochasticGreedyScheduler(double epsilon)
    : epsilon_(epsilon) {
  if (epsilon <= 0.0 || epsilon >= 1.0)
    throw std::invalid_argument("StochasticGreedyScheduler: epsilon outside (0,1)");
}

GreedyResult StochasticGreedyScheduler::schedule(const Problem& problem,
                                                 util::Rng& rng,
                                                 const PlannerContext& ctx) const {
  COOL_SPAN("stochastic_greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "StochasticGreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // Sample size per step: every sensor is placed (k = n), so n/k = 1 and
  // the textbook size collapses to ln(1/ε); keep at least that many and
  // scale with the remaining pool so early steps see a fair spread.
  const double log_term = std::log(1.0 / epsilon_);

  // Scratch (candidate pool + batched gains) comes from the planner arena;
  // the sampled candidates sit contiguously at the pool's front after the
  // partial Fisher-Yates pass, so the argmax scan batches straight out of
  // the pool array.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();
  util::ArenaVector<std::size_t> pool(&arena);
  pool.resize(n);
  for (std::size_t v = 0; v < n; ++v) pool[v] = v;
  // One gain row for the unfused fallback, reused slot by slot.
  double* gains = arena.allocate_array<double>(n);

  // Fused slot-row evaluation, resolved once per call:
  // each sampled candidate's coverage row is walked a single time for all
  // T slots, producing bit-identical gains to the per-slot batch path.
  const sub::FusedSlotEvaluator fused = sub::resolve_fused(slot_state);

  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t remaining = pool.size();
    const auto sample_size = std::min(
        remaining,
        std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(
                   log_term * static_cast<double>(remaining) /
                   static_cast<double>(n - step)))));
    // Partial Fisher-Yates: move `sample_size` random picks to the front.
    for (std::size_t i = 0; i < sample_size; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(i), static_cast<std::int64_t>(remaining) - 1));
      std::swap(pool[i], pool[j]);
    }

    // Argmax over the sampled candidates; ties break on the lowest (sample
    // position, slot) pair.
    const ScanBest best = scan_argmax(
        fused, slot_state, pool.data(), sample_size, gains);
    result.oracle_calls += sample_size * T;
    const std::size_t chosen = pool[best.index];
    pool[best.index] = pool.back();
    pool.pop_back();
    slot_state[best.slot]->add(chosen);
    result.schedule.set_active(chosen, best.slot);
    result.steps.push_back(GreedyStep{chosen, best.slot, best.gain});
  }
  return result;
}

}  // namespace cool::core
