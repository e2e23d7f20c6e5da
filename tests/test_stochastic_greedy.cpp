#include "core/stochastic_greedy.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "net/network.h"
#include "submodular/detection.h"

namespace cool::core {
namespace {

Problem random_instance(std::size_t n, std::size_t m, std::size_t T,
                        std::uint64_t seed) {
  net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = m;
  config.sensing_radius = 45.0;
  util::Rng rng(seed);
  const auto network = net::make_random_network(config, rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
  return Problem(std::move(utility), T, 1, true);
}

TEST(StochasticGreedy, PlacesEverySensorFeasibly) {
  const auto problem = random_instance(50, 5, 4, 1);
  util::Rng rng(2);
  const auto result = StochasticGreedyScheduler().schedule(problem, rng);
  EXPECT_TRUE(result.schedule.feasible(problem));
  for (std::size_t v = 0; v < 50; ++v)
    EXPECT_EQ(result.schedule.active_count(v), 1u);
  EXPECT_EQ(result.steps.size(), 50u);
}

TEST(StochasticGreedy, FarFewerOracleCallsThanExactGreedy) {
  // Against the exact climb's naive scan, T·n(n+1)/2 calls: the pool the
  // sampler draws from. Plain greedy's own count is no yardstick: it
  // caches gains and refreshes only dependents.
  const std::size_t n = 200, T = 4;
  const auto problem = random_instance(n, 10, T, 3);
  util::Rng rng(4);
  const auto sampled = StochasticGreedyScheduler(0.1).schedule(problem, rng);
  EXPECT_LT(sampled.oracle_calls, T * n * (n + 1) / 2 / 10);
}

TEST(StochasticGreedy, UtilityStaysCompetitiveOnAverage) {
  // Mean over seeds within 10% of the exact greedy on dense instances.
  const auto problem = random_instance(80, 6, 4, 5);
  const double exact_u =
      evaluate(problem, GreedyScheduler().schedule(problem).schedule)
          .total_utility;
  double sampled_sum = 0.0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    const auto result = StochasticGreedyScheduler(0.1).schedule(problem, rng);
    sampled_sum += evaluate(problem, result.schedule).total_utility;
  }
  EXPECT_GE(sampled_sum / trials, 0.9 * exact_u);
}

TEST(StochasticGreedy, SmallerEpsilonUsesMoreOracleCalls) {
  const auto problem = random_instance(100, 8, 4, 7);
  util::Rng rng_a(8), rng_b(8);
  const auto loose = StochasticGreedyScheduler(0.5).schedule(problem, rng_a);
  const auto tight = StochasticGreedyScheduler(0.01).schedule(problem, rng_b);
  EXPECT_GT(tight.oracle_calls, loose.oracle_calls);
}

TEST(StochasticGreedy, DeterministicPerSeed) {
  const auto problem = random_instance(30, 3, 4, 9);
  util::Rng rng_a(10), rng_b(10);
  const auto a = StochasticGreedyScheduler().schedule(problem, rng_a);
  const auto b = StochasticGreedyScheduler().schedule(problem, rng_b);
  for (std::size_t v = 0; v < 30; ++v)
    for (std::size_t t = 0; t < 4; ++t)
      EXPECT_EQ(a.schedule.active(v, t), b.schedule.active(v, t));
}

TEST(StochasticGreedy, Validation) {
  EXPECT_THROW(StochasticGreedyScheduler(0.0), std::invalid_argument);
  EXPECT_THROW(StochasticGreedyScheduler(1.0), std::invalid_argument);
  const auto problem = random_instance(5, 1, 3, 11);
  const Problem rho_le(problem.slot_utility_ptr(), 3, 1, false);
  util::Rng rng(12);
  EXPECT_THROW(StochasticGreedyScheduler().schedule(rho_le, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::core
