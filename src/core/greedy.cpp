#include "core/greedy.h"

#include <limits>
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

}  // namespace detail

namespace {

constexpr double kPlaced = -std::numeric_limits<double>::infinity();

// Tournament tree over sensors: node i holds the better of its children,
// where sensor a beats b on a larger key, then on the lower index. The
// root is thus the first maximum of the ascending sensor scan, the
// greedy's tie-break. Leaves sit in sensor order, so a left child's winner
// always has the lower index and wins ties; padding leaves hold the index
// n, whose key (kPlaced, like every placed sensor) never beats a real one.
class GainTree {
 public:
  // key must hold n + 1 entries, key[n] == kPlaced.
  GainTree(util::Arena& arena, const double* key, std::size_t n) : key_(key) {
    while (leaves_ < n) leaves_ *= 2;
    node_ = arena.allocate_array<std::size_t>(2 * leaves_);
    for (std::size_t i = 0; i < leaves_; ++i) node_[leaves_ + i] = i < n ? i : n;
    for (std::size_t i = leaves_ - 1; i >= 1; --i) node_[i] = winner(i);
  }

  std::size_t top() const noexcept { return node_[1]; }

  // Re-seats sensor v after its key changed. The climb stops at the first
  // node that neither held v nor takes it now: nothing above it changed.
  void update(std::size_t v) noexcept {
    for (std::size_t i = (leaves_ + v) / 2; i >= 1; i /= 2) {
      const std::size_t old = node_[i];
      node_[i] = winner(i);
      if (node_[i] == old && old != v) return;
    }
  }

 private:
  std::size_t winner(std::size_t i) const noexcept {
    const std::size_t left = node_[2 * i], right = node_[2 * i + 1];
    return key_[right] > key_[left] ? right : left;
  }

  const double* key_;
  std::size_t leaves_ = 1;
  std::size_t* node_ = nullptr;
};

}  // namespace

GreedyResult GreedyScheduler::schedule(const Problem& problem,
                                       const PlannerContext& ctx) const {
  COOL_SPAN("greedy.schedule", "core");
  if (!problem.rho_greater_than_one())
    throw std::invalid_argument(
        "GreedyScheduler requires rho > 1; use PassiveGreedyScheduler");

  const std::size_t n = problem.sensor_count();
  const std::size_t T = problem.slots_per_period();
  const sub::SubmodularFunction& utility = problem.slot_utility();

  GreedyResult result{PeriodicSchedule(n, T), {}, 0};
  result.steps.reserve(n);

  // One incremental evaluator per slot; slot states grow as sensors land.
  std::vector<std::unique_ptr<sub::EvalState>> local_states;
  auto& slot_state = detail::prepare_slot_states(problem, ctx, T, local_states);

  // All scratch comes from the planner arena (a call-local one when the
  // caller did not provide a warmed arena). A warmed arena serves every
  // later schedule() call with zero heap allocations — the property
  // scripts/check_profile.sh gates.
  util::Arena local_arena;
  util::Arena& arena = ctx.arena ? *ctx.arena : local_arena;
  arena.reset();
  // gain[v*T + t] = slot_state[t]->marginal(v) for every unplaced v, kept
  // exact by refreshing what each placement can change (DESIGN.md §16).
  double* gain = arena.allocate_array<double>(n * T);
  // key[v] = gain[v*T + best_slot[v]], v's first maximum over its slots;
  // kPlaced once v is placed, and for the tree's padding index n.
  double* key = arena.allocate_array<double>(n + 1);
  key[n] = kPlaced;
  std::size_t* best_slot = arena.allocate_array<std::size_t>(n);
  // The sensors whose gains are being (re)computed, and those gains.
  std::size_t* stale = arena.allocate_array<std::size_t>(n);
  double* fresh = arena.allocate_array<double>(n);
  sub::DependentsScratch dependents(arena, n);

  for (std::size_t v = 0; v < n; ++v) stale[v] = v;
  for (std::size_t t = 0; t < T; ++t) {
    slot_state[t]->marginal_batch({stale, n}, {fresh, n});
    for (std::size_t v = 0; v < n; ++v) gain[v * T + t] = fresh[v];
  }
  result.oracle_calls = n * T;
  const auto reseat = [&](std::size_t v) {
    const double* row = gain + v * T;
    std::size_t best = 0;
    for (std::size_t t = 1; t < T; ++t)
      if (row[t] > row[best]) best = t;
    best_slot[v] = best;
    key[v] = row[best];
  };
  for (std::size_t v = 0; v < n; ++v) reseat(v);
  GainTree tree(arena, key, n);

  for (std::size_t step = 0; step < n; ++step) {
    // Deadline poll between placement steps: a step either fully lands or
    // never starts, so cancellation leaves no half-applied placement.
    if (ctx.cancel) ctx.cancel->checkpoint();
    const std::size_t sensor = tree.top();
    const std::size_t slot = best_slot[sensor];
    result.steps.push_back(GreedyStep{sensor, slot, key[sensor]});
    result.schedule.set_active(sensor, slot);
    slot_state[slot]->add(sensor);
    key[sensor] = kPlaced;
    tree.update(sensor);
    // Only slot `slot` changed, and in it only the placed sensor's
    // dependents can see a different marginal.
    std::size_t count = 0;
    if (const auto listed = utility.dependents(sensor, dependents)) {
      for (const std::size_t v : *listed)
        if (key[v] != kPlaced) stale[count++] = v;
    } else {
      for (std::size_t v = 0; v < n; ++v)
        if (key[v] != kPlaced) stale[count++] = v;
    }
    if (count == 0) continue;
    slot_state[slot]->marginal_batch({stale, count}, {fresh, count});
    result.oracle_calls += count;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t v = stale[k];
      gain[v * T + slot] = fresh[k];
      const double old_key = key[v];
      if (slot == best_slot[v]) {
        reseat(v);
      } else if (fresh[k] > old_key ||
                 (fresh[k] == old_key && slot < best_slot[v])) {
        // Only this slot moved, so the best is either it or the old one.
        best_slot[v] = slot;
        key[v] = fresh[k];
      }
      if (key[v] != old_key) tree.update(v);
    }
  }
  // Published once per schedule, not per marginal query, so the enabled-
  // but-idle cost stays off the planning loop.
  COOL_METRIC_ADD("greedy.schedules", 1);
  COOL_METRIC_ADD("greedy.oracle_calls", result.oracle_calls);
  COOL_METRIC_OBSERVE("greedy.oracle_calls_per_schedule", result.oracle_calls);
  return result;
}

}  // namespace cool::core
