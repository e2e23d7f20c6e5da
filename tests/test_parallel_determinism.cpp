// The parallel engine's headline contract: LP rounding, the evaluator, and
// the campaign runner produce bit-for-bit identical results at every thread
// count. Each test runs the same workload at 1, 2, and 8 threads and
// compares against the serial run with exact equality — no tolerances
// anywhere. (The greedy-family scans are serial.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/lp_scheduler.h"
#include "core/problem.h"
#include "net/network.h"
#include "sim/campaign.h"
#include "submodular/detection.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cool {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 8};

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(0); }
};

std::shared_ptr<sub::MultiTargetDetectionUtility> make_utility(std::size_t n) {
  // Deterministic mixed-fan-out coverage relation: 8 targets, 5 distinct
  // detectors each.
  std::vector<std::vector<std::size_t>> covers(8);
  for (std::size_t j = 0; j < covers.size(); ++j)
    for (std::size_t k = 0; k < 5; ++k)
      covers[j].push_back((3 * j + 5 * k + 1) % n);
  return std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(n, covers, 0.4));
}

core::Problem make_problem(std::size_t n) {
  return core::Problem(make_utility(n), 4, 3, true);
}

TEST_F(ParallelDeterminism, LpSchedulerRounding) {
  const auto utility = make_utility(18);
  const core::Problem problem(utility, 4, 1, true);
  util::set_thread_count(1);
  util::Rng rng(5);
  const auto serial = core::LpScheduler().schedule(problem, *utility, rng);
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    util::Rng par_rng(5);
    const auto parallel = core::LpScheduler().schedule(problem, *utility, par_rng);
    EXPECT_TRUE(parallel.schedule == serial.schedule) << threads << " threads";
    EXPECT_EQ(parallel.rounded_utility_per_period,
              serial.rounded_utility_per_period)
        << threads << " threads";
    EXPECT_EQ(parallel.rounds_drawn, serial.rounds_drawn);
  }
}

TEST_F(ParallelDeterminism, EvaluatorSlotFanOut) {
  const auto problem = make_problem(30);
  util::set_thread_count(1);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  const auto serial = core::evaluate(problem, schedule);
  const auto horizon = core::HorizonSchedule::tile(schedule, 3);
  const auto serial_horizon = core::evaluate(problem, horizon);
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const auto parallel = core::evaluate(problem, schedule);
    EXPECT_EQ(parallel.total_utility, serial.total_utility);
    EXPECT_EQ(parallel.slot_utilities, serial.slot_utilities);
    const auto parallel_horizon = core::evaluate(problem, horizon);
    EXPECT_EQ(parallel_horizon.total_utility, serial_horizon.total_utility);
    EXPECT_EQ(parallel_horizon.slot_utilities, serial_horizon.slot_utilities);
  }
}

TEST_F(ParallelDeterminism, ReusedEvaluatorMatchesOneShot) {
  const auto problem = make_problem(30);
  util::set_thread_count(2);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  core::Evaluator evaluator(problem);
  const auto first = evaluator(schedule);
  const auto second = evaluator(schedule);  // reused reset() states
  const auto one_shot = core::evaluate(problem, schedule);
  EXPECT_EQ(first.total_utility, one_shot.total_utility);
  EXPECT_EQ(second.total_utility, one_shot.total_utility);
  EXPECT_EQ(second.slot_utilities, one_shot.slot_utilities);
}

TEST_F(ParallelDeterminism, CampaignDayFanOut) {
  cool::net::NetworkConfig net_config;
  net_config.sensor_count = 12;
  net_config.target_count = 4;
  net_config.region_side = 120.0;
  net_config.sensing_radius = 45.0;
  net_config.comm_radius = 60.0;
  util::Rng net_rng(11);
  const auto network = net::make_random_network(net_config, net_rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(12, network.coverage(), 0.4));
  sim::CampaignConfig config;
  config.days = 6;
  config.failure_rate_per_slot = 0.02;

  const auto run_campaign = [&] {
    const sim::CampaignRunner runner(network, utility, config, util::Rng(77));
    return runner.run();
  };
  util::set_thread_count(1);
  const auto serial = run_campaign();
  for (const std::size_t threads : kThreadCounts) {
    util::set_thread_count(threads);
    const auto parallel = run_campaign();
    EXPECT_EQ(parallel.average_utility, serial.average_utility);
    EXPECT_EQ(parallel.total_slots, serial.total_slots);
    EXPECT_EQ(parallel.total_violations, serial.total_violations);
    EXPECT_EQ(parallel.total_failures, serial.total_failures);
    ASSERT_EQ(parallel.days.size(), serial.days.size());
    for (std::size_t day = 0; day < serial.days.size(); ++day) {
      EXPECT_EQ(parallel.days[day].weather, serial.days[day].weather);
      EXPECT_EQ(parallel.days[day].slots, serial.days[day].slots);
      EXPECT_EQ(parallel.days[day].average_utility,
                serial.days[day].average_utility)
          << "day " << day << " at " << threads << " threads";
      EXPECT_EQ(parallel.days[day].failures, serial.days[day].failures);
    }
  }
}

TEST_F(ParallelDeterminism, CampaignTrialsAreDecorrelatedButStable) {
  cool::net::NetworkConfig net_config;
  net_config.sensor_count = 10;
  net_config.target_count = 3;
  net_config.region_side = 100.0;
  net_config.sensing_radius = 45.0;
  util::Rng net_rng(4);
  const auto network = net::make_random_network(net_config, net_rng);
  auto utility = std::make_shared<sub::MultiTargetDetectionUtility>(
      sub::MultiTargetDetectionUtility::uniform(10, network.coverage(), 0.4));
  sim::CampaignConfig config;
  config.days = 4;
  config.failure_rate_per_slot = 0.05;

  const sim::CampaignRunner runner(network, utility, config, util::Rng(9));
  util::set_thread_count(1);
  const auto serial = runner.run_trials(3);
  util::set_thread_count(4);
  const auto parallel = runner.run_trials(3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t trial = 0; trial < serial.size(); ++trial)
    EXPECT_EQ(parallel[trial].average_utility, serial[trial].average_utility)
        << "trial " << trial;
}

}  // namespace
}  // namespace cool
