#include "core/lazy_greedy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/greedy.h"
#include "net/network.h"
#include "submodular/detection.h"
#include "svc/session.h"
#include "util/rng.h"

namespace cool::core {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

Problem random_instance(std::size_t n, std::size_t m, std::size_t T,
                        std::uint64_t seed) {
  net::NetworkConfig config;
  config.sensor_count = n;
  config.target_count = m;
  util::Rng rng(seed);
  const auto network = net::make_random_network(config, rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
  return Problem(std::move(utility), T, 1, true);
}

TEST(LazyGreedy, RequiresRhoGreaterThanOne) {
  const Problem problem(detect(4, 0.4), 4, 1, false);
  EXPECT_THROW(LazyGreedyScheduler().schedule(problem), std::invalid_argument);
}

TEST(LazyGreedy, FeasibleAndComplete) {
  const auto problem = random_instance(40, 5, 4, 1);
  const auto result = LazyGreedyScheduler().schedule(problem);
  EXPECT_TRUE(result.schedule.feasible(problem));
  for (std::size_t v = 0; v < 40; ++v)
    EXPECT_EQ(result.schedule.active_count(v), 1u);
}

// Same schedule, same placement order, same gains. coold serves plain
// greedy only and replays WAL entries its former lazy rung logged on it, so
// this equivalence is what keeps old logs replaying to identical state.
void expect_same_climb(const Problem& problem, const std::string& label) {
  const auto plain = GreedyScheduler().schedule(problem);
  const auto lazy = LazyGreedyScheduler().schedule(problem);
  EXPECT_TRUE(lazy.schedule == plain.schedule) << label;
  ASSERT_EQ(lazy.steps.size(), plain.steps.size()) << label;
  for (std::size_t i = 0; i < plain.steps.size(); ++i) {
    const std::string at = label + " step " + std::to_string(i);
    EXPECT_EQ(lazy.steps[i].sensor, plain.steps[i].sensor) << at;
    EXPECT_EQ(lazy.steps[i].slot, plain.steps[i].slot) << at;
    EXPECT_EQ(lazy.steps[i].gain, plain.steps[i].gain) << at;
  }
}

TEST(LazyGreedy, SchedulesMatchPlainGreedyBitForBit) {
  // Both climbs pick the first maximum in (sensor, slot) order, so they
  // agree exactly, ties included.
  for (const std::size_t n : {8u, 30u, 77u, 200u})
    for (const std::size_t T : {3u, 4u, 8u})
      for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u})
        expect_same_climb(random_instance(n, n / 4 + 2, T, seed),
                          "random n=" + std::to_string(n) +
                              " T=" + std::to_string(T) +
                              " seed=" + std::to_string(seed));
  // Identical single-target sensors: every step is an all-way tie.
  for (const std::size_t n : {8u, 13u, 40u})
    for (const std::size_t T : {3u, 4u, 8u})
      expect_same_climb(Problem(detect(n, 0.4), T, 1, true),
                        "all-tie n=" + std::to_string(n) +
                            " T=" + std::to_string(T));
  // A coold session: sparse region scaled with n, as coold's clients send.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    svc::NetworkSpec spec;
    spec.sensors = 300;
    spec.targets = 450;
    spec.region_side = 274.0;
    spec.seed = seed;
    expect_same_climb(svc::make_problem(spec),
                      "session seed=" + std::to_string(seed));
  }
}

TEST(LazyGreedy, IssuesFewerOracleCallsOnStructuredInstances) {
  // Against the naive climb, which rescans every unplaced (sensor, slot)
  // pair per step: T·n(n+1)/2 calls. Plain greedy's own count is no
  // yardstick: it caches gains and refreshes only dependents.
  const std::size_t n = 120, T = 4;
  const auto problem = random_instance(n, 10, T, 7);
  const auto lazy = LazyGreedyScheduler().schedule(problem);
  const std::size_t naive = T * n * (n + 1) / 2;
  EXPECT_LT(lazy.oracle_calls, naive / 2)
      << "lazy " << lazy.oracle_calls << " vs naive scan " << naive;
}

TEST(LazyGreedy, StepGainsNonIncreasing) {
  const auto problem = random_instance(25, 3, 4, 11);
  const auto result = LazyGreedyScheduler().schedule(problem);
  for (std::size_t i = 1; i < result.steps.size(); ++i)
    EXPECT_LE(result.steps[i].gain, result.steps[i - 1].gain + 1e-9);
}

TEST(LazyGreedy, IdenticalSensorsBalancedAcrossSlots) {
  const Problem problem(detect(8, 0.4), 4, 1, true);
  const auto result = LazyGreedyScheduler().schedule(problem);
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_EQ(result.schedule.active_set(t).size(), 2u);
}

}  // namespace
}  // namespace cool::core
