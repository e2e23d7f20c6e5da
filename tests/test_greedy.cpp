#include "core/greedy.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/evaluator.h"
#include "core/exhaustive.h"
#include "submodular/detection.h"
#include "util/rng.h"

namespace cool::core {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

TEST(Greedy, RequiresRhoGreaterThanOne) {
  const Problem problem(detect(4, 0.4), 4, 1, false);
  EXPECT_THROW(GreedyScheduler().schedule(problem), std::invalid_argument);
}

TEST(Greedy, EverySensorPlacedExactlyOnce) {
  const Problem problem(detect(9, 0.4), 6, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  EXPECT_EQ(result.steps.size(), 9u);
  for (std::size_t v = 0; v < 9; ++v)
    EXPECT_EQ(result.schedule.active_count(v), 1u);
  EXPECT_TRUE(result.schedule.feasible(problem));
}

TEST(Greedy, SingleTargetSpreadsSensorsEvenly) {
  // 8 identical sensors, T = 4: the greedy fills slots round-robin-like,
  // ending with exactly 2 sensors per slot (diminishing returns).
  const Problem problem(detect(8, 0.4), 4, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_EQ(result.schedule.active_set(t).size(), 2u);
}

TEST(Greedy, FewerSensorsThanSlotsOnePerSlot) {
  const Problem problem(detect(3, 0.4), 4, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  std::size_t occupied = 0;
  for (std::size_t t = 0; t < 4; ++t)
    occupied += result.schedule.active_set(t).empty() ? 0 : 1;
  EXPECT_EQ(occupied, 3u);  // no doubling up while an empty slot remains
}

TEST(Greedy, StepGainsAreNonIncreasingForIdenticalSensors) {
  const Problem problem(detect(12, 0.4), 4, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  for (std::size_t i = 1; i < result.steps.size(); ++i)
    EXPECT_LE(result.steps[i].gain, result.steps[i - 1].gain + 1e-12);
}

TEST(Greedy, FirstStepTakesLargestSingletonGain) {
  // Heterogeneous probabilities: the best single sensor goes first.
  const Problem problem(
      std::make_shared<sub::DetectionUtility>(std::vector<double>{0.2, 0.9, 0.4}),
      3, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  EXPECT_EQ(result.steps.front().sensor, 1u);
  EXPECT_NEAR(result.steps.front().gain, 0.9, 1e-12);
}

TEST(Greedy, OracleCallCountMatchesComplexity) {
  const std::size_t n = 10, T = 3;
  const Problem problem(detect(n, 0.4), T, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  // The cache fill costs n·T. DetectionUtility does not list dependents,
  // so placement k refreshes every one of the n − k − 1 unplaced sensors in
  // the slot that grew: Σ = n(n−1)/2. (The naive rescan costs T·n(n+1)/2.)
  EXPECT_EQ(result.oracle_calls, n * T + n * (n - 1) / 2);
}

TEST(Greedy, MultiTargetRespectsCoverage) {
  // Sensors {0,1} cover target 0 only; {2,3} cover target 1 only. Greedy
  // must put the two sensors of each target in different slots.
  const auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(4, {{0, 1}, {2, 3}}, 0.4));
  const Problem problem(utility, 2, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  EXPECT_NE(result.schedule.active(0, 0), result.schedule.active(1, 0));
  EXPECT_NE(result.schedule.active(2, 0), result.schedule.active(3, 0));
  const auto eval = evaluate(problem, result.schedule);
  EXPECT_NEAR(eval.per_slot_average, 0.8, 1e-12);
}

TEST(Greedy, MatchesExhaustiveOnIdenticalSensorInstances) {
  // For identical sensors the greedy's balanced split is exactly optimal.
  for (const std::size_t n : {2u, 4u, 6u}) {
    const Problem problem(detect(n, 0.4), 2, 1, true);
    const auto greedy = GreedyScheduler().schedule(problem);
    const auto optimal = ExhaustiveScheduler().schedule(problem);
    const auto eval = evaluate(problem, greedy.schedule);
    EXPECT_NEAR(eval.total_utility, optimal.utility_per_period, 1e-9)
        << "n = " << n;
  }
}

TEST(Greedy, DeterministicOutput) {
  const Problem problem(detect(10, 0.4), 4, 1, true);
  const auto a = GreedyScheduler().schedule(problem);
  const auto b = GreedyScheduler().schedule(problem);
  for (std::size_t v = 0; v < 10; ++v)
    for (std::size_t t = 0; t < 4; ++t)
      EXPECT_EQ(a.schedule.active(v, t), b.schedule.active(v, t));
}

TEST(Greedy, Fig4ShapeNineSensorsSixSlots) {
  // The paper's Fig 4 walkthrough: rho = 5 (T = 6), n = 9 identical
  // sensors, one target. The greedy must spread them so that exactly three
  // slots hold two sensors and three hold one (9 = 3x2 + 3x1), never three
  // in one slot while another has one.
  const Problem problem(detect(9, 0.4), 6, 1, true);
  const auto result = GreedyScheduler().schedule(problem);
  std::size_t doubles = 0, singles = 0;
  for (std::size_t t = 0; t < 6; ++t) {
    const auto size = result.schedule.active_set(t).size();
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, 2u);
    (size == 2 ? doubles : singles) += 1;
  }
  EXPECT_EQ(doubles, 3u);
  EXPECT_EQ(singles, 3u);
  // Fig 4's narrative: the first six placements land in empty slots (full
  // singleton gain each), the last three double up.
  for (std::size_t step = 0; step < 6; ++step)
    EXPECT_NEAR(result.steps[step].gain, 0.4, 1e-12);
  for (std::size_t step = 6; step < 9; ++step)
    EXPECT_NEAR(result.steps[step].gain, 0.6 * 0.4, 1e-12);
}

TEST(Greedy, TiledScheduleRetainsPerSlotAverage) {
  // Theorem 4.3 structure: per-slot average is invariant to α.
  const Problem one_period(detect(10, 0.4), 4, 1, true);
  const Problem many_periods(detect(10, 0.4), 4, 12, true);
  const auto schedule = GreedyScheduler().schedule(one_period).schedule;
  const auto e1 = evaluate(one_period, schedule);
  const auto e12 = evaluate(many_periods, schedule);
  EXPECT_NEAR(e1.per_slot_average, e12.per_slot_average, 1e-12);
  EXPECT_NEAR(e12.total_utility, 12.0 * e1.total_utility, 1e-9);
}

}  // namespace
}  // namespace cool::core
