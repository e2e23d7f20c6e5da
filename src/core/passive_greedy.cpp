#include "core/passive_greedy.h"

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"

namespace cool::core {

namespace {

constexpr std::size_t kNoSensor = static_cast<std::size_t>(-1);

// Value of a slot's active set (set-difference evaluation; the EvalState
// interface is add-only, so removals are evaluated by rebuilding into a
// reusable, reset() state).
double set_value(sub::EvalState& state, const std::vector<std::uint8_t>& mask,
                 std::size_t skip_sensor) {
  state.reset();
  for (std::size_t v = 0; v < mask.size(); ++v)
    if (mask[v] && v != skip_sensor) state.add(v);
  return state.value();
}

}  // namespace

PassiveGreedyResult PassiveGreedyScheduler::schedule(const Problem& problem) const {
  COOL_SPAN("passive_greedy.schedule", "core");
  if (problem.rho_greater_than_one())
    throw std::invalid_argument(
        "PassiveGreedyScheduler requires rho <= 1; use GreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();

  PassiveGreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  // Start all-active.
  std::vector<std::vector<std::uint8_t>> mask(T, std::vector<std::uint8_t>(n, 1));
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t t = 0; t < T; ++t) result.schedule.set_active(v, t);

  // One state, reset() by every set_value() call, serves all evaluations.
  const auto state_ptr = problem.slot_utility().make_state();
  sub::EvalState& state = *state_ptr;

  // Cached per-slot base values and per-(sensor, slot) losses, invalidated
  // per slot when that slot's active set changes.
  std::vector<double> base(T);
  for (std::size_t t = 0; t < T; ++t) {
    base[t] = set_value(state, mask[t], kNoSensor);
    ++result.oracle_calls;
  }
  std::vector<std::vector<double>> loss(n, std::vector<double>(T, 0.0));
  std::vector<std::vector<std::uint8_t>> loss_fresh(n, std::vector<std::uint8_t>(T, 0));

  std::vector<std::uint8_t> assigned(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    // Refresh exactly the stale (sensor, slot) losses; strict < keeps the
    // first (v, t) attaining the minimum in v-outer/t-inner order.
    double best_loss = std::numeric_limits<double>::infinity();
    std::size_t best_sensor = n;
    std::size_t best_slot = T;
    for (std::size_t v = 0; v < n; ++v) {
      if (assigned[v]) continue;
      for (std::size_t t = 0; t < T; ++t) {
        if (!loss_fresh[v][t]) {
          loss[v][t] = base[t] - set_value(state, mask[t], v);
          loss_fresh[v][t] = 1;
          ++result.oracle_calls;
        }
        if (loss[v][t] < best_loss) {
          best_loss = loss[v][t];
          best_sensor = v;
          best_slot = t;
        }
      }
    }
    assigned[best_sensor] = 1;
    mask[best_slot][best_sensor] = 0;
    result.schedule.set_active(best_sensor, best_slot, false);
    result.steps.push_back(PassiveStep{best_sensor, best_slot, best_loss});
    // Only the chosen slot's losses changed.
    base[best_slot] = set_value(state, mask[best_slot], kNoSensor);
    ++result.oracle_calls;
    for (std::size_t v = 0; v < n; ++v) loss_fresh[v][best_slot] = 0;
  }
  return result;
}

}  // namespace cool::core
