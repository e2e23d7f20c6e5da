// Differential tests for the dependency-aware planners (DESIGN.md section
// 16): SubmodularFunction::dependents() must list every element whose
// marginal an add or a removal can change, and repair_schedule's cached
// losses and gains must reproduce the full-recompute repair bit for bit.
// The reference below is the repair loop that rebuilt every oracle state
// of both changed slots and re-derived every loss and gain in them after
// each move, kept verbatim as the ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/repair.h"
#include "submodular/detection.h"
#include "svc/session.h"
#include "util/arena.h"
#include "util/rng.h"

namespace cool::core {
namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

RepairResult reference_repair(const PeriodicSchedule& schedule,
                              const sub::SubmodularFunction& utility,
                              const std::vector<std::uint8_t>& dead,
                              const RepairConfig& config) {
  const std::size_t n = schedule.sensor_count();
  const std::size_t T = schedule.slots_per_period();
  RepairResult result{PeriodicSchedule(n, T)};

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
    movable[v] = !dead[v] && count <= 1;
    if (count > 1) home[v] = kNoSlot;
  }

  result.utility_before = surviving_period_utility(result.schedule, utility, dead);

  const std::size_t max_moves =
      config.max_moves > 0 ? config.max_moves : 4 * n;
  std::vector<std::unique_ptr<sub::EvalState>> states(T);
  std::vector<double> loss(n, 0.0);
  std::vector<std::vector<double>> gain(n, std::vector<double>(T, 0.0));
  std::vector<std::uint8_t> dirty(T, 1);
  while (result.moves < max_moves) {
    for (std::size_t t = 0; t < T; ++t) {
      if (!dirty[t]) continue;
      states[t] = utility.make_state();
      for (const auto u : slot_sets[t]) states[t]->add(u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (!movable[v]) continue;
      if (home[v] != kNoSlot && dirty[home[v]]) {
        const auto rest = utility.make_state();
        for (const auto u : slot_sets[home[v]])
          if (u != v) rest->add(u);
        loss[v] = rest->marginal(v);
        ++result.oracle_calls;
      }
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v] || !dirty[t]) continue;
        if (config.restrict_to_affected && !affected[t]) continue;
        gain[v][t] = states[t]->marginal(v);
        ++result.oracle_calls;
      }
    }
    std::fill(dirty.begin(), dirty.end(), static_cast<std::uint8_t>(0));

    double best_delta = config.min_gain;
    std::size_t best_v = n, best_to = T;
    for (std::size_t v = 0; v < n; ++v) {
      if (!movable[v]) continue;
      const double vacate = home[v] != kNoSlot ? loss[v] : 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v]) continue;
        if (config.restrict_to_affected && !affected[t]) continue;
        const double delta = gain[v][t] - vacate;
        if (delta > best_delta) {
          best_delta = delta;
          best_v = v;
          best_to = t;
        }
      }
    }
    if (best_v == n) break;

    if (home[best_v] != kNoSlot) {
      const std::size_t from = home[best_v];
      result.schedule.set_active(best_v, from, false);
      auto& from_set = slot_sets[from];
      from_set.erase(std::find(from_set.begin(), from_set.end(), best_v));
      affected[from] = 1;
      dirty[from] = 1;
    }
    result.schedule.set_active(best_v, best_to);
    slot_sets[best_to].push_back(best_v);
    home[best_v] = best_to;
    dirty[best_to] = 1;
    ++result.moves;
  }

  result.utility_after = surviving_period_utility(result.schedule, utility, dead);
  return result;
}

// Non-uniform probabilities and weights, fan-in 1-7 per target, repeats
// allowed: every target's miss product depends on its detectors' order.
// A p >= 0 is used for every pair instead, which makes the slot states
// counted and sends repair down the exact-removal path.
std::shared_ptr<sub::MultiTargetDetectionUtility> random_utility(
    std::size_t sensors, std::size_t targets, std::uint64_t seed,
    double p = -1.0) {
  util::Rng rng(seed);
  std::vector<sub::MultiTargetDetectionUtility::Target> spec(targets);
  for (auto& target : spec) {
    target.weight = rng.uniform(0.5, 3.0);
    const auto fan = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    for (std::size_t k = 0; k < fan; ++k) {
      const auto sensor = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sensors) - 1));
      target.detectors.emplace_back(sensor,
                                    p < 0.0 ? rng.uniform(0.1, 0.9) : p);
    }
  }
  return std::make_shared<sub::MultiTargetDetectionUtility>(sensors,
                                                            std::move(spec));
}

std::vector<std::uint8_t> random_dead(std::size_t n, std::size_t count,
                                      util::Rng& rng) {
  std::vector<std::uint8_t> dead(n, 0);
  for (std::size_t k = 0; k < count; ++k)
    dead[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] = 1;
  return dead;
}

// Returns the moves both made, so callers can check the cases exercised
// the move loop and not only the initial fill.
std::size_t expect_same_repair(const PeriodicSchedule& schedule,
                               const sub::SubmodularFunction& utility,
                               const std::vector<std::uint8_t>& dead,
                               const std::string& label) {
  std::size_t moves = 0;
  for (const bool restrict : {true, false}) {
    RepairConfig config;
    config.restrict_to_affected = restrict;
    const std::string at = label + (restrict ? " restricted" : " open");
    const auto want = reference_repair(schedule, utility, dead, config);
    const auto got = repair_schedule(schedule, utility, dead, config);
    EXPECT_TRUE(got.schedule == want.schedule) << at;
    EXPECT_EQ(got.moves, want.moves) << at;
    EXPECT_EQ(got.utility_before, want.utility_before) << at;
    EXPECT_EQ(got.utility_after, want.utility_after) << at;
    EXPECT_LE(got.oracle_calls, want.oracle_calls) << at;
    moves += want.moves;
  }
  return moves;
}

TEST(RepairCache, MatchesFullRecomputeRepairBitForBit) {
  std::size_t moves = 0;
  for (const double p : {-1.0, 0.4})
    for (const std::size_t n : {12u, 40u, 120u})
      for (const std::size_t T : {3u, 4u, 6u})
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          const auto utility = random_utility(n, n / 2 + 3, seed * 31 + n + T, p);
          const Problem problem(utility, T, 1, true);
          auto schedule = GreedyScheduler().schedule(problem).schedule;
          util::Rng rng(seed);
          // Some sensors unplaced (movable from nowhere), some multi-slot
          // (fixed in place, but their adds shape both slots' states).
          for (std::size_t k = 0; k < n / 10 + 1; ++k) {
            const auto v = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
            for (std::size_t t = 0; t < T; ++t) schedule.set_active(v, t, false);
          }
          for (std::size_t k = 0; k < n / 10 + 1; ++k) {
            const auto v = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
            schedule.set_active(v, static_cast<std::size_t>(rng.uniform_int(
                                       0, static_cast<std::int64_t>(T) - 1)));
          }
          const auto dead = random_dead(n, 1 + n / 20, rng);
          moves += expect_same_repair(schedule, *utility, dead,
                             std::string(p < 0.0 ? "random" : "uniform") +
                                 " n=" + std::to_string(n) +
                                 " T=" + std::to_string(T) +
                                 " seed=" + std::to_string(seed));
        }
  EXPECT_GT(moves, 100u);
}

TEST(RepairCache, MatchesOnCooldSpecs) {
  // Three session specs and one at large_plan's largest size. The kAuto
  // pass repairs on counted states (exact removal); the kScalar pass runs
  // the same instances through states that cannot remove.
  std::vector<svc::NetworkSpec> specs;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    svc::NetworkSpec spec;
    spec.sensors = 300;
    spec.targets = 450;
    spec.region_side = 274.0;
    spec.slots_per_period = 3 + seed;
    spec.seed = seed;
    specs.push_back(spec);
  }
  svc::NetworkSpec large;
  large.sensors = 2048;
  large.targets = 4096;
  large.region_side = 716.0;
  large.slots_per_period = 4;
  large.seed = 4;
  specs.push_back(large);
  const sub::MarginalKernel saved = sub::marginal_kernel();
  for (const auto kernel :
       {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
    sub::set_marginal_kernel(kernel);
    std::size_t moves = 0;
    for (const svc::NetworkSpec& spec : specs) {
      const std::uint64_t seed = spec.seed;
      const Problem problem = svc::make_problem(spec);
      const auto schedule = GreedyScheduler().schedule(problem).schedule;
      util::Rng rng(seed + 100);
      moves += expect_same_repair(
          schedule, problem.slot_utility(), random_dead(spec.sensors, 2, rng),
          "session seed=" + std::to_string(seed) +
              (kernel == sub::MarginalKernel::kAuto ? " fast" : " scalar"));
    }
    EXPECT_GT(moves, 0u);
  }
  sub::set_marginal_kernel(saved);
}

TEST(RepairCache, MatchesWhenEveryElementIsADependent) {
  // DetectionUtility does not list dependents, and MaskedUtility forwards
  // its base's answer: both take the refresh-everything path.
  std::size_t moves = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    util::Rng rng(seed);
    std::vector<double> p(30);
    for (auto& value : p) value = rng.uniform(0.1, 0.9);
    const auto single = std::make_shared<sub::DetectionUtility>(p);
    const Problem problem(single, 4, 1, true);
    const auto schedule = GreedyScheduler().schedule(problem).schedule;
    const auto dead = random_dead(30, 3, rng);
    moves += expect_same_repair(schedule, *single, dead, "single-target");
    const MaskedUtility masked(random_utility(30, 20, seed), dead);
    moves += expect_same_repair(schedule, masked, dead, "masked");
  }
  EXPECT_GT(moves, 0u);
}

// Marginals of every element in `state`, bit patterns included.
std::vector<double> marginals(const sub::EvalState& state, std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t v = 0; v < n; ++v) out[v] = state.marginal(v);
  return out;
}

TEST(Dependents, NonDependentMarginalsSurviveAddAndRemoval) {
  const sub::MarginalKernel saved = sub::marginal_kernel();
  for (const auto kernel :
       {sub::MarginalKernel::kAuto, sub::MarginalKernel::kScalar}) {
    sub::set_marginal_kernel(kernel);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const std::size_t n = 40;
      const auto utility = random_utility(n, 25, seed);
      util::Arena arena;
      sub::DependentsScratch scratch(arena, n);
      util::Rng rng(seed);
      // A random add sequence, and e spliced into it at a random position.
      std::vector<std::size_t> sequence;
      for (std::size_t v = 0; v < n; ++v)
        if (rng.uniform(0.0, 1.0) < 0.4) sequence.push_back(v);
      const auto e = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      std::erase(sequence, e);
      auto with_e = sequence;
      with_e.insert(with_e.begin() + static_cast<std::ptrdiff_t>(rng.uniform_int(
                                         0, static_cast<std::int64_t>(sequence.size()))),
                    e);
      const auto without = utility->make_state();
      for (const auto v : sequence) without->add(v);
      const auto spliced = utility->make_state();
      for (const auto v : with_e) spliced->add(v);
      const auto before = marginals(*without, n);
      without->add(e);  // e appended at the end
      const auto appended = marginals(*without, n);
      const auto inserted = marginals(*spliced, n);

      const auto listed = utility->dependents(e, scratch);
      ASSERT_TRUE(listed.has_value());
      std::vector<std::uint8_t> dependent(n, 0);
      for (const auto v : *listed) {
        ASSERT_LT(v, n);
        EXPECT_FALSE(dependent[v]) << "listed twice: " << v;
        dependent[v] = 1;
      }
      EXPECT_TRUE(dependent[e]) << "e lists itself";
      for (std::size_t v = 0; v < n; ++v) {
        if (dependent[v]) continue;
        EXPECT_EQ(appended[v], before[v]) << "seed " << seed << " v " << v;
        EXPECT_EQ(inserted[v], before[v]) << "seed " << seed << " v " << v;
      }
      // The relation is symmetric for detection: v lists e iff e lists v.
      for (std::size_t v = 0; v < n; ++v) {
        const auto back = utility->dependents(v, scratch);
        const bool lists_e =
            std::find(back->begin(), back->end(), e) != back->end();
        EXPECT_EQ(lists_e, static_cast<bool>(dependent[v])) << v;
      }
    }
  }
  sub::set_marginal_kernel(saved);
}

TEST(Dependents, DefaultIsEveryElementAndMaskForwardsItsBase) {
  util::Arena arena;
  sub::DependentsScratch scratch(arena, 4);
  const sub::DetectionUtility single({0.2, 0.4, 0.6, 0.8});
  EXPECT_FALSE(single.dependents(1, scratch).has_value());

  // Sensors {0,1} share target 0, {2,3} share target 1; nothing links them.
  const auto pairs = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(4, {{0, 1}, {2, 3}}, 0.4));
  const MaskedUtility masked(pairs, {0, 1, 0, 0});
  for (const sub::SubmodularFunction* fn :
       {static_cast<const sub::SubmodularFunction*>(pairs.get()),
        static_cast<const sub::SubmodularFunction*>(&masked)}) {
    const auto listed = fn->dependents(2, scratch);
    ASSERT_TRUE(listed.has_value());
    std::vector<std::size_t> sorted(listed->begin(), listed->end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{2, 3}));
  }
  util::Arena small_arena;
  sub::DependentsScratch small(small_arena, 2);
  EXPECT_THROW(pairs->dependents(0, small), std::invalid_argument);
  EXPECT_THROW(pairs->dependents(4, scratch), std::out_of_range);
}

TEST(Dependents, ReusedScratchStartsEachListEmpty) {
  // Many queries on one scratch: each list is fresh, never a union.
  const auto pairs = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(4, {{0, 1}, {2, 3}}, 0.4));
  util::Arena arena;
  sub::DependentsScratch scratch(arena, 4);
  for (int round = 0; round < 1000; ++round)
    EXPECT_EQ(pairs->dependents(static_cast<std::size_t>(round % 4), scratch)
                  ->size(),
              2u);
}

}  // namespace
}  // namespace cool::core
