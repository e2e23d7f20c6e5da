#include "sim/faults.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/problem.h"
#include "sim/simulator.h"
#include "submodular/detection.h"

namespace cool::sim {
namespace {

std::shared_ptr<const sub::SubmodularFunction> detect(std::size_t n, double p) {
  return std::make_shared<sub::DetectionUtility>(std::vector<double>(n, p));
}

SimConfig normalized_config(std::size_t days = 1) {
  SimConfig config;
  config.backend = EnergyBackend::kNormalized;
  config.days = days;
  config.pattern = energy::ChargingPattern{};  // 15/45: rho 3, T = 4
  config.slots_per_day = 48;
  return config;
}

TEST(FaultModel, Validation) {
  FaultModelConfig config;
  config.failure_rate_per_slot = -0.1;
  EXPECT_THROW(validate_fault_config(config, 4), std::invalid_argument);
  config = {};
  config.death_rate_per_slot = 1.5;
  EXPECT_THROW(validate_fault_config(config, 4), std::invalid_argument);
  config = {};
  config.kind = FaultKind::kWearout;
  config.wearout_cycles = 0.0;
  EXPECT_THROW(validate_fault_config(config, 4), std::invalid_argument);
  config = {};
  config.trace.push_back({0, 9, 1});
  EXPECT_THROW(validate_fault_config(config, 4), std::invalid_argument);
  EXPECT_NO_THROW(validate_fault_config(config, 10));
}

TEST(FaultModel, TransientDeterministicCycle) {
  // rate 1: every healthy node fails on sight. With repair_slots = 2 a node
  // is down 2 slots, healthy for 1 (the recovery slot is not re-sampled),
  // then fails again: onsets at slots 0, 3, 6, ...
  FaultModelConfig config;
  config.kind = FaultKind::kTransient;
  config.failure_rate_per_slot = 1.0;
  config.repair_slots = 2;
  FaultModel faults(3, config, util::Rng(1));
  std::vector<std::uint8_t> down_pattern;
  for (std::size_t slot = 0; slot < 8; ++slot) {
    faults.step(slot);
    down_pattern.push_back(faults.down(0) ? 1 : 0);
  }
  EXPECT_EQ(down_pattern,
            (std::vector<std::uint8_t>{1, 1, 0, 1, 1, 0, 1, 1}));
  // Onsets at 0, 3, 6 for each of the 3 nodes.
  EXPECT_EQ(faults.stats().failures_injected, 9u);
  EXPECT_EQ(faults.stats().deaths, 0u);
}

TEST(FaultModel, RepairSlotsZeroIsOneSlotOutage) {
  // Regression (ISSUE 1 satellite): the seed counted a failure but never
  // took the node down when repair_slots == 0.
  FaultModelConfig config;
  config.kind = FaultKind::kTransient;
  config.failure_rate_per_slot = 1.0;
  config.repair_slots = 0;
  FaultModel faults(1, config, util::Rng(2));
  faults.step(0);
  EXPECT_TRUE(faults.down(0));  // the injected failure must land
  faults.step(1);
  EXPECT_FALSE(faults.down(0));  // ... and last exactly one slot
  faults.step(2);
  EXPECT_TRUE(faults.down(0));
  EXPECT_EQ(faults.stats().failures_injected, 2u);
}

TEST(FaultModel, CrashStopIsPermanent) {
  FaultModelConfig config;
  config.kind = FaultKind::kCrashStop;
  config.death_rate_per_slot = 1.0;
  FaultModel faults(4, config, util::Rng(3));
  faults.step(0);
  EXPECT_EQ(faults.stats().deaths, 4u);
  EXPECT_EQ(faults.stats().failures_injected, 4u);
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_TRUE(faults.dead(v));
    EXPECT_EQ(faults.death_slot(v), 0u);
  }
  // Dead stays dead; no double counting.
  for (std::size_t slot = 1; slot < 10; ++slot) faults.step(slot);
  EXPECT_EQ(faults.stats().deaths, 4u);
  EXPECT_TRUE(faults.dead(2));
}

TEST(FaultModel, WearoutRequiresActivity) {
  FaultModelConfig config;
  config.kind = FaultKind::kWearout;
  config.wearout_scale = 1.0;
  config.wearout_cycles = 1.0;
  config.wearout_exponent = 0.0;  // p = 1 once a node has any cycles
  FaultModel faults(2, config, util::Rng(4));
  for (std::size_t slot = 0; slot < 5; ++slot) faults.step(slot);
  EXPECT_EQ(faults.stats().deaths, 0u);  // fresh batteries never wear out
  faults.record_activation(0);
  faults.step(5);
  EXPECT_TRUE(faults.dead(0));
  EXPECT_FALSE(faults.dead(1));
  EXPECT_EQ(faults.death_slot(0), 5u);
}

TEST(FaultModel, TraceReplay) {
  FaultModelConfig config;
  config.kind = FaultKind::kTrace;
  config.trace = {{2, 0, 2}, {4, 1, 0}};  // outage for 0; node 1 dies at 4
  FaultModel faults(2, config, util::Rng(5));
  faults.step(0);
  faults.step(1);
  EXPECT_FALSE(faults.down(0));
  faults.step(2);
  EXPECT_TRUE(faults.down(0));
  faults.step(3);
  EXPECT_TRUE(faults.down(0));
  faults.step(4);
  EXPECT_FALSE(faults.down(0));
  EXPECT_TRUE(faults.dead(1));
  EXPECT_EQ(faults.stats().failures_injected, 2u);
  EXPECT_EQ(faults.stats().deaths, 1u);
}

TEST(FaultModel, UpMaskMatchesState) {
  FaultModelConfig config;
  config.kind = FaultKind::kTrace;
  config.trace = {{0, 1, 0}};
  FaultModel faults(3, config, util::Rng(6));
  faults.step(0);
  EXPECT_EQ(faults.up_mask(), (std::vector<std::uint8_t>{1, 0, 1}));
}

// --- Simulator integration ---

TEST(SimulatorFaults, LegacyAliasExactCounts) {
  // The seed's transient model through SimConfig::faults.
  // rate 1, repair_slots 2, 48 slots: onsets at 0, 3, 6, ..., 45 -> 16 per
  // node. A schedule that selects a down node logs a failed selection.
  const auto utility = detect(4, 0.4);
  auto config = normalized_config();
  config.faults.kind = FaultKind::kTransient;
  config.faults.failure_rate_per_slot = 1.0;
  config.faults.repair_slots = 2;
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, config, util::Rng(7));
  const auto report = sim.run(policy);
  EXPECT_EQ(report.failures_injected, 4u * 16u);
  // Every node is scheduled once per period (12 periods); 2/3 of slots are
  // down slots, and which scheduled slots collide is deterministic here:
  // the whole fleet is down on slots != 2 (mod 3).
  EXPECT_GT(report.failed_selections, 0u);
  EXPECT_EQ(report.node_deaths, 0u);
}

TEST(SimulatorFaults, RepairSlotsZeroRegression) {
  // Seed behavior: failures were counted but nodes never went down, so no
  // selection ever failed. Now the outage lands for one slot.
  const auto utility = detect(3, 0.4);
  auto config = normalized_config();
  config.faults.kind = FaultKind::kTransient;
  config.faults.failure_rate_per_slot = 1.0;
  config.faults.repair_slots = 0;
  core::PeriodicSchedule all_on(3, 4);
  for (std::size_t v = 0; v < 3; ++v)
    for (std::size_t t = 0; t < 4; ++t) all_on.set_active(v, t);
  SchedulePolicy policy(all_on);
  Simulator sim(utility, config, util::Rng(8));
  const auto report = sim.run(policy);
  EXPECT_GT(report.failures_injected, 0u);
  EXPECT_GT(report.failed_selections, 0u);
  // Down on even slots, up on odd: exactly half the selections fail.
  EXPECT_EQ(report.failures_injected, 3u * 24u);
  EXPECT_EQ(report.failed_selections, 3u * 24u);
}

TEST(SimulatorFaults, CrashStopThroughSimulator) {
  const auto utility = detect(10, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  auto config = normalized_config(5);
  config.faults.kind = FaultKind::kCrashStop;
  config.faults.death_rate_per_slot = 0.005;
  SchedulePolicy policy(schedule);
  Simulator sim(utility, config, util::Rng(9));
  const auto report = sim.run(policy);
  EXPECT_GT(report.node_deaths, 0u);
  EXPECT_EQ(report.node_deaths, report.failures_injected);

  SchedulePolicy healthy_policy(schedule);
  Simulator healthy(utility, normalized_config(5), util::Rng(9));
  const auto healthy_report = healthy.run(healthy_policy);
  EXPECT_LT(report.total_utility, healthy_report.total_utility);
}

TEST(SimulatorFaults, UtilityDropsMonotonicallyWithFailureRate) {
  const auto utility = detect(12, 0.4);
  const core::Problem problem(utility, 4, 12, true);
  const auto schedule = core::GreedyScheduler().schedule(problem).schedule;
  double previous = std::numeric_limits<double>::infinity();
  for (const double rate : {0.0, 0.05, 0.15, 0.40}) {
    auto config = normalized_config(10);
    config.faults.kind = FaultKind::kTransient;
    config.faults.failure_rate_per_slot = rate;
    config.faults.repair_slots = 4;
    SchedulePolicy policy(schedule);
    Simulator sim(utility, config, util::Rng(10));
    const auto report = sim.run(policy);
    EXPECT_LT(report.total_utility, previous)
        << "utility must drop as the failure rate grows (rate " << rate << ")";
    previous = report.total_utility;
  }
}

}  // namespace
}  // namespace cool::sim
