#include "core/repair.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/lazy_greedy.h"
#include "core/passive_greedy.h"
#include "obs/obs.h"
#include "util/arena.h"

namespace cool::core {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

class MaskedState final : public sub::EvalState {
 public:
  MaskedState(std::unique_ptr<sub::EvalState> base,
              const std::vector<std::uint8_t>* masked)
      : base_(std::move(base)), masked_(masked) {}

  double marginal(std::size_t element) const override {
    return (*masked_)[element] ? 0.0 : base_->marginal(element);
  }
  void add(std::size_t element) override {
    if (!(*masked_)[element]) base_->add(element);
  }
  void reset() override { base_->reset(); }
  double value() const override { return base_->value(); }
  std::unique_ptr<sub::EvalState> clone() const override {
    return std::make_unique<MaskedState>(base_->clone(), masked_);
  }

 private:
  std::unique_ptr<sub::EvalState> base_;
  const std::vector<std::uint8_t>* masked_;  // owned by the MaskedUtility
};

}  // namespace

MaskedUtility::MaskedUtility(std::shared_ptr<const sub::SubmodularFunction> base,
                             std::vector<std::uint8_t> masked)
    : base_(std::move(base)), masked_(std::move(masked)) {
  if (!base_) throw std::invalid_argument("MaskedUtility: null base");
  if (masked_.size() != base_->ground_size())
    throw std::invalid_argument("MaskedUtility: mask size mismatch");
}

std::unique_ptr<sub::EvalState> MaskedUtility::make_state() const {
  return std::make_unique<MaskedState>(base_->make_state(), &masked_);
}

double surviving_period_utility(const PeriodicSchedule& schedule,
                                const sub::SubmodularFunction& utility,
                                const std::vector<std::uint8_t>& dead) {
  if (dead.size() != schedule.sensor_count())
    throw std::invalid_argument("surviving_period_utility: mask mismatch");
  double total = 0.0;
  const auto state = utility.make_state();
  for (std::size_t t = 0; t < schedule.slots_per_period(); ++t) {
    state->reset();
    for (const auto v : schedule.active_set(t))
      if (!dead[v]) state->add(v);
    total += state->value();
  }
  return total;
}

RepairResult repair_schedule(const PeriodicSchedule& schedule,
                             const sub::SubmodularFunction& utility,
                             const std::vector<std::uint8_t>& dead,
                             const RepairConfig& config) {
  COOL_SPAN("repair.schedule", "core");
  const std::size_t n = schedule.sensor_count();
  const std::size_t T = schedule.slots_per_period();
  if (dead.size() != n)
    throw std::invalid_argument("repair_schedule: mask mismatch");
  if (utility.ground_size() != n)
    throw std::invalid_argument("repair_schedule: utility/schedule mismatch");

  RepairResult result{PeriodicSchedule(n, T)};

  // Clear dead rows; mark the slots they vacated as affected.
  std::vector<std::uint8_t> affected(T, 0);
  std::vector<std::size_t> home(n, kNoSlot);
  std::vector<std::uint8_t> movable(n, 0);
  std::vector<std::vector<std::size_t>> slot_sets(T);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t count = 0;
    for (std::size_t t = 0; t < T; ++t) {
      if (!schedule.active(v, t)) continue;
      if (dead[v]) {
        affected[t] = 1;
        continue;
      }
      result.schedule.set_active(v, t);
      slot_sets[t].push_back(v);
      home[v] = t;
      ++count;
    }
    // Only single-slot (ρ > 1 shape) or unplaced survivors may be moved.
    movable[v] = !dead[v] && count <= 1;
    if (count > 1) home[v] = kNoSlot;  // multi-slot: fixed in place
  }

  const std::size_t max_moves =
      config.max_moves > 0 ? config.max_moves : 4 * n;
  // Exact caches (DESIGN.md section 16): loss[v] is the cost of vacating
  // v's home slot, gain[v*T + t] what v would add to slot t (kept for
  // t != home[v] in every slot a move may target). A move from slot a to
  // slot b changes only those two slot sets, and in them only the numbers
  // of the mover's dependents, so only those are recomputed — by the same
  // oracle on states that agree with a rebuild from scratch on every
  // product the number reads, hence bit for bit the values a full
  // recompute would give.
  std::vector<std::unique_ptr<sub::EvalState>> states(T);
  for (std::size_t t = 0; t < T; ++t) {
    states[t] = utility.make_state();
    for (const auto u : slot_sets[t]) states[t]->add(u);
  }
  // Exact removal lets the live slot states answer everything: a loss is
  // remove, marginal, add; a move is one remove and one add; a period's
  // utility is the slots' value() sum. Otherwise a loss is a marginal on
  // the home slot rebuilt without v, and the vacated slot is rebuilt in
  // slot order, as a from-scratch rebuild would add it.
  const bool removable =
      std::all_of(states.begin(), states.end(),
                  [](const auto& state) { return state->can_remove(); });
  const auto period_utility = [&] {
    if (!removable)
      return surviving_period_utility(result.schedule, utility, dead);
    double total = 0.0;
    for (const auto& state : states) total += state->value();
    return total;
  };
  result.utility_before = period_utility();

  const auto open = [&](std::size_t t) {
    return !config.restrict_to_affected || affected[t];
  };
  std::vector<std::size_t> movers;
  for (std::size_t v = 0; v < n; ++v)
    if (movable[v]) movers.push_back(v);
  std::vector<double> loss(n, 0.0);
  std::vector<double> gain(n * T, 0.0);
  std::vector<std::size_t> batch(movers.size());
  std::vector<double> fresh(movers.size());
  // Every mover's gain into slot t (its home excepted), one batch.
  const auto fill_slot_gains = [&](std::size_t t) {
    std::size_t count = 0;
    for (const auto v : movers)
      if (home[v] != t) batch[count++] = v;
    states[t]->marginal_batch({batch.data(), count}, {fresh.data(), count});
    result.oracle_calls += count;
    for (std::size_t k = 0; k < count; ++k) gain[batch[k] * T + t] = fresh[k];
  };
  // loss[v] = U(A) − U(A \ {v}) for v homed in slot A: v's marginal on
  // the rest of A.
  const auto rest = removable ? nullptr : utility.make_state();
  const auto refresh_loss = [&](std::size_t v) {
    auto& home_state = *states[home[v]];
    if (removable) {
      home_state.remove(v);
      loss[v] = home_state.marginal(v);
      home_state.add(v);
    } else {
      rest->reset();
      for (const auto u : slot_sets[home[v]])
        if (u != v) rest->add(u);
      loss[v] = rest->marginal(v);
    }
    ++result.oracle_calls;
  };

  for (std::size_t t = 0; t < T; ++t) {
    for (const auto v : slot_sets[t])
      if (movable[v]) refresh_loss(v);
    if (open(t)) fill_slot_gains(t);
  }

  util::Arena arena(n * (sizeof(std::uint32_t) + sizeof(std::size_t)) + 64);
  sub::DependentsScratch dependents(arena, n);
  while (result.moves < max_moves) {
    double best_delta = config.min_gain;
    std::size_t best_v = n, best_to = T;
    for (const auto v : movers) {
      const double vacate = home[v] != kNoSlot ? loss[v] : 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v] || !open(t)) continue;
        const double delta = gain[v * T + t] - vacate;
        if (delta > best_delta) {
          best_delta = delta;
          best_v = v;
          best_to = t;
        }
      }
    }
    if (best_v == n) break;

    const std::size_t from = home[best_v];
    bool from_opened = false;
    if (from != kNoSlot) {
      result.schedule.set_active(best_v, from, false);
      auto& from_set = slot_sets[from];
      from_set.erase(std::find(from_set.begin(), from_set.end(), best_v));
      from_opened = !open(from);
      affected[from] = 1;  // the vacated slot may now need patching too
      if (removable) {
        states[from]->remove(best_v);
      } else {
        states[from]->reset();
        for (const auto u : from_set) states[from]->add(u);
      }
    }
    result.schedule.set_active(best_v, best_to);
    slot_sets[best_to].push_back(best_v);
    home[best_v] = best_to;
    states[best_to]->add(best_v);
    ++result.moves;

    // Refresh what reads the two changed slots: the losses of the mover's
    // dependents homed there and their gains into them. A slot that has
    // just opened to moves had no gains cached, so it gets every mover's.
    const auto listed = utility.dependents(best_v, dependents);
    const std::span<const std::size_t> touched =
        listed ? *listed : std::span<const std::size_t>(movers);
    for (const std::size_t t : {from, best_to}) {
      if (t == kNoSlot) continue;
      const bool every_gain =
          open(t) && (!listed || (t == from && from_opened));
      for (const auto u : touched) {
        if (!movable[u]) continue;
        if (home[u] == t) {
          refresh_loss(u);
        } else if (open(t) && !every_gain) {
          gain[u * T + t] = states[t]->marginal(u);
          ++result.oracle_calls;
        }
      }
      if (every_gain) fill_slot_gains(t);
    }
  }

  result.utility_after = period_utility();
  // Delta size (moves == changed assignments == dissemination cost) and
  // oracle effort per repair, published once per call.
  COOL_METRIC_ADD("repair.calls", 1);
  COOL_METRIC_ADD("repair.moves", result.moves);
  COOL_METRIC_OBSERVE("repair.moves_per_call", result.moves);
  COOL_METRIC_OBSERVE("repair.oracle_calls_per_call", result.oracle_calls);
  return result;
}

RecomputeResult recompute_schedule(const Problem& problem,
                                   const std::vector<std::uint8_t>& dead) {
  const std::size_t n = problem.sensor_count();
  if (dead.size() != n)
    throw std::invalid_argument("recompute_schedule: mask mismatch");
  const auto masked =
      std::make_shared<MaskedUtility>(problem.slot_utility_ptr(), dead);
  const Problem survivors(masked, problem.slots_per_period(), problem.periods(),
                          problem.rho_greater_than_one());

  RecomputeResult result{PeriodicSchedule(n, problem.slots_per_period())};
  if (problem.rho_greater_than_one()) {
    auto greedy = LazyGreedyScheduler().schedule(survivors);
    result.schedule = std::move(greedy.schedule);
    result.oracle_calls = greedy.oracle_calls;
  } else {
    auto passive = PassiveGreedyScheduler().schedule(survivors);
    result.schedule = std::move(passive.schedule);
    result.oracle_calls = passive.oracle_calls;
  }
  // The greedy places masked (zero-gain) sensors too; clear their rows so
  // the schedule never asks a dead node to activate.
  for (std::size_t v = 0; v < n; ++v) {
    if (!dead[v]) continue;
    for (std::size_t t = 0; t < problem.slots_per_period(); ++t)
      result.schedule.set_active(v, t, false);
  }
  result.utility =
      surviving_period_utility(result.schedule, problem.slot_utility(), dead);
  return result;
}

}  // namespace cool::core
