// Cross-module consistency sweeps: for a grid of instance shapes, the
// pipeline's independent implementations must agree —
//   * schedulers emit feasible schedules (structural + battery automaton);
//   * periodic evaluation == tiled horizon evaluation;
//   * the normalized-energy simulator reproduces the evaluator exactly.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/passive_greedy.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cool::core {
namespace {

// (sensors, targets, T, periods, rho_gt_one, seed)
using Shape = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         bool, std::uint64_t>;

class PipelineSweep : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    const auto [n, m, T, periods, rho_gt_one, seed] = GetParam();
    net::NetworkConfig config;
    config.sensor_count = n;
    config.target_count = m;
    config.sensing_radius = 40.0;
    util::Rng rng(seed);
    const auto network = net::make_random_network(config, rng);
    utility_ = std::make_shared<sub::MultiTargetDetectionUtility>(
        sub::MultiTargetDetectionUtility::uniform(n, network.coverage(), 0.4));
    problem_ = std::make_unique<Problem>(utility_, T, periods, rho_gt_one);
    schedule_ = std::make_unique<PeriodicSchedule>(
        rho_gt_one ? GreedyScheduler().schedule(*problem_).schedule
                   : PassiveGreedyScheduler().schedule(*problem_).schedule);
  }

  std::shared_ptr<sub::MultiTargetDetectionUtility> utility_;
  std::unique_ptr<Problem> problem_;
  std::unique_ptr<PeriodicSchedule> schedule_;
};

TEST_P(PipelineSweep, ScheduleIsFeasibleBothWays) {
  std::string why;
  EXPECT_TRUE(schedule_->feasible(*problem_, &why)) << why;
  const auto horizon = HorizonSchedule::tile(*schedule_, problem_->periods());
  EXPECT_TRUE(horizon.feasible(*problem_, &why)) << why;
}

TEST_P(PipelineSweep, PeriodicAndHorizonEvaluationsAgree) {
  const auto periodic = evaluate(*problem_, *schedule_);
  const auto horizon = evaluate(
      *problem_, HorizonSchedule::tile(*schedule_, problem_->periods()));
  EXPECT_NEAR(periodic.total_utility, horizon.total_utility,
              1e-9 * (1.0 + periodic.total_utility));
  EXPECT_NEAR(periodic.per_slot_average, horizon.per_slot_average, 1e-9);
}

TEST_P(PipelineSweep, SimulatorReproducesEvaluator) {
  sim::SimConfig config;
  config.backend = sim::EnergyBackend::kNormalized;
  config.slots_per_day = problem_->horizon_slots();
  // The normalized backend's rho case must match the problem's.
  config.pattern = problem_->rho_greater_than_one()
                       ? energy::ChargingPattern{15.0, 15.0 * static_cast<double>(
                                                            problem_->slots_per_period() - 1)}
                       : energy::ChargingPattern{15.0 * static_cast<double>(
                                                     problem_->slots_per_period() - 1),
                                                 15.0};
  sim::SchedulePolicy policy(*schedule_);
  sim::Simulator simulator(utility_, config, util::Rng(99));
  const auto report = simulator.run(policy);
  const auto eval = evaluate(*problem_, *schedule_);
  EXPECT_EQ(report.energy_violations, 0u);
  EXPECT_NEAR(report.average_utility_per_slot, eval.per_slot_average, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(Shape{6, 1, 2, 1, true, 1}, Shape{10, 2, 4, 12, true, 2},
                      Shape{20, 5, 4, 3, true, 3}, Shape{15, 3, 7, 2, true, 4},
                      Shape{8, 2, 3, 4, false, 5}, Shape{12, 4, 5, 2, false, 6},
                      Shape{25, 1, 2, 6, false, 7}, Shape{40, 8, 4, 12, true, 8}));

}  // namespace
}  // namespace cool::core
