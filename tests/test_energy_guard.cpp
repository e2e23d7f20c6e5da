// Brownout guard, supply-uncertainty runtime, and chance-constrained
// planning. All scenarios are deterministic under the fixed seeds below.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/planner.h"
#include "core/problem.h"
#include "net/link.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/runtime.h"
#include "util/rng.h"

namespace cool::sim {
namespace {

constexpr std::uint64_t kSeed = 33;

// The routing tree and link model keep pointers into the network, so the
// network is heap-owned to pin its address for the testbed's lifetime.
struct Testbed {
  std::shared_ptr<net::Network> network;
  std::shared_ptr<net::RoutingTree> tree;
  std::shared_ptr<net::LinkModel> links;
  net::RadioEnergyModel radio;
  energy::ChargingPattern pattern;
  std::shared_ptr<const sub::SubmodularFunction> utility;
  core::PeriodicSchedule schedule{1, 2};  // placeholder until make() fills it

  static Testbed make(std::size_t sensors = 24) {
    net::NetworkConfig config;
    config.sensor_count = sensors;
    config.target_count = 12;
    config.sensing_radius = 25.0;
    config.comm_radius = 70.0;
    util::Rng rng(kSeed);
    Testbed bed;
    bed.network = std::make_shared<net::Network>(
        net::make_random_network(config, rng));
    bed.pattern = energy::pattern_for_weather(energy::Weather::kSunny);
    const auto problem =
        core::Problem::detection_instance(*bed.network, 0.4, bed.pattern, 8);
    bed.schedule = core::GreedyScheduler().schedule(problem).schedule;
    bed.utility = problem.slot_utility_ptr();
    bed.tree = std::make_shared<net::RoutingTree>(
        *bed.network, net::choose_best_sink(*bed.network));
    bed.links = std::make_shared<net::LinkModel>(*bed.network);
    return bed;
  }

  RuntimeConfig base_config(std::size_t slots = 240) const {
    RuntimeConfig config;
    config.slots = slots;
    config.pattern = pattern;
    return config;
  }

  RuntimeReport run(const RuntimeConfig& config) const {
    ResilientRuntime runtime(utility, *network, *tree, *links, radio, schedule,
                             config, util::Rng(kSeed + 1));
    return runtime.run();
  }
};

TEST(EnergyUncertaintyConfig, Validation) {
  EnergyUncertaintyConfig config;
  EXPECT_NO_THROW(validate_energy_uncertainty_config(config, 4, false));
  config.enabled = true;
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, false),
               std::invalid_argument);  // rho <= 1 regime unsupported
  EXPECT_NO_THROW(validate_energy_uncertainty_config(config, 4, true));
  config.slot_stretch = {1.0, 0.0};
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, true),
               std::invalid_argument);
  config.slot_stretch.clear();
  config.node_stretch = {1.0, 1.0};  // wrong size
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, true),
               std::invalid_argument);
  config.node_stretch.clear();
  config.bench_rho_factor = 1.0;
  config.readmit_rho_factor = 1.2;  // inverted hysteresis band
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, true),
               std::invalid_argument);
  config = EnergyUncertaintyConfig{};
  config.enabled = true;
  config.brownout_budget = 0.0;
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, true),
               std::invalid_argument);
  config = EnergyUncertaintyConfig{};
  config.enabled = true;
  config.max_bench_fraction = 1.5;
  EXPECT_THROW(validate_energy_uncertainty_config(config, 4, true),
               std::invalid_argument);
}

TEST(EnergyGuard, DisabledLeavesLegacyBehavior) {
  const auto bed = Testbed::make();
  const auto report = bed.run(bed.base_config());
  EXPECT_EQ(report.brownouts, 0u);
  EXPECT_EQ(report.brownout_declines, 0u);
  EXPECT_EQ(report.replans, 0u);
  EXPECT_EQ(report.energy_violations, 0u);
  EXPECT_NEAR(report.coverage_retained, 1.0, 1e-9);
}

TEST(EnergyGuard, NominalSupplyIsBrownoutFree) {
  const auto bed = Testbed::make();
  auto config = bed.base_config();
  config.energy.enabled = true;  // no stretch, no jitter
  const auto report = bed.run(config);
  EXPECT_EQ(report.brownout_declines, 0u);
  EXPECT_EQ(report.brownouts, 0u);
  EXPECT_EQ(report.radio_blackout_slots, 0u);
  EXPECT_NEAR(report.coverage_retained, 1.0, 1e-9);
  // Every completed cycle recharges in exactly the planned T-1 slots.
  EXPECT_NEAR(report.estimated_fleet_rho_slots, report.planned_rho_slots,
              1e-6);
}

TEST(EnergyGuard, GuardDeclinesUnderCloudStretch) {
  const auto bed = Testbed::make();
  auto config = bed.base_config();
  config.energy.enabled = true;
  config.energy.slot_stretch = {2.0};  // persistent heavy overcast
  const auto report = bed.run(config);
  EXPECT_GT(report.brownout_declines, 0u);
  EXPECT_EQ(report.brownouts, 0u);            // the guard caught them all
  EXPECT_EQ(report.radio_blackout_slots, 0u); // radio never browned out
  EXPECT_EQ(report.false_deaths, 0u);         // heartbeats kept flowing
  EXPECT_LT(report.coverage_retained, 1.0);
  // The realized rho' roughly doubles the plan.
  EXPECT_GT(report.estimated_fleet_rho_slots,
            1.5 * report.planned_rho_slots);
}

TEST(EnergyGuard, UnguardedBrownoutsBlackOutTheRadio) {
  const auto bed = Testbed::make();
  auto config = bed.base_config();
  config.energy.enabled = true;
  config.energy.slot_stretch = {2.0};
  config.energy.brownout_guard = false;
  const auto report = bed.run(config);
  EXPECT_GT(report.brownouts, 0u);
  EXPECT_EQ(report.brownout_declines, 0u);
  EXPECT_GT(report.radio_blackout_slots, 0u);
}

TEST(EnergyGuard, GuardNeverLosesToUnguarded) {
  const auto bed = Testbed::make();
  auto guarded = bed.base_config();
  guarded.energy.enabled = true;
  guarded.energy.slot_stretch = {2.0};
  auto unguarded = guarded;
  unguarded.energy.brownout_guard = false;
  const auto with_guard = bed.run(guarded);
  const auto without = bed.run(unguarded);
  // A brownout wastes the charge the slot had accumulated, so the guarded
  // system recovers strictly faster on this scenario.
  EXPECT_GE(with_guard.total_utility, without.total_utility);
}

TEST(AdaptiveReplan, BenchesShadedNodesAndBeatsStaticPlan) {
  const auto bed = Testbed::make();
  auto config = bed.base_config(400);
  config.energy.enabled = true;
  // A shaded third of the fleet charges at a sixth of the planned rate, so
  // each shaded node makes its slot barely one period in six; benching it
  // and rebalancing healthy nodes into the depleted slots must win.
  config.energy.node_stretch.assign(bed.schedule.sensor_count(), 1.0);
  for (std::size_t v = 0; v < bed.schedule.sensor_count(); v += 3)
    config.energy.node_stretch[v] = 6.0;

  const auto static_report = bed.run(config);

  auto adaptive = config;
  adaptive.energy.adaptive = true;
  const auto adaptive_report = bed.run(adaptive);

  EXPECT_GT(adaptive_report.replans, 0u);
  EXPECT_GT(adaptive_report.bench_events, 0u);
  EXPECT_GT(adaptive_report.total_utility, static_report.total_utility);
  // Benched nodes no longer attempt (and lose) their slots.
  EXPECT_LT(adaptive_report.brownout_declines, static_report.brownout_declines);
}

TEST(AdaptiveReplan, ReadmitsAfterTheCloudPasses) {
  const auto bed = Testbed::make();
  auto config = bed.base_config(480);
  config.energy.enabled = true;
  config.energy.adaptive = true;
  // A cloud parks over a third of the field for the first 200 slots (those
  // nodes recharge at a quarter rate and get benched), then burns off: the
  // benched nodes return on probation, earn fresh clear-sky samples, and
  // graduate back to full citizenship.
  config.energy.node_stretch.assign(bed.schedule.sensor_count(), 1.0);
  for (std::size_t v = 0; v < bed.schedule.sensor_count(); v += 3)
    config.energy.node_stretch[v] = 4.0;
  config.energy.node_stretch_until_slot = 200;
  const auto report = bed.run(config);
  EXPECT_GT(report.bench_events, 0u);
  EXPECT_GT(report.readmit_events, 0u);
  EXPECT_EQ(report.benched_final, 0u);  // everyone back after recovery
}

TEST(AdaptiveReplan, HysteresisBoundsReplanRate) {
  const auto bed = Testbed::make();
  auto config = bed.base_config(400);
  config.energy.enabled = true;
  config.energy.adaptive = true;
  config.energy.slot_stretch = {2.0};
  const auto report = bed.run(config);
  // Cooldown is 2T = 8 slots: replans can never exceed horizon / cooldown.
  EXPECT_LE(report.replans, config.slots / 8);
}

TEST(ChanceConstrained, QuantileStretchesThePeriod) {
  energy::StochasticChargingConfig stochastic;
  stochastic.event_rate_per_min = 0.3;
  stochastic.mean_event_minutes = 2.0;     // duty 0.6
  stochastic.continuous_discharge_min = 15.0;  // T̄d = 25
  stochastic.mean_recharge_min = 45.0;     // rho' = 1.8 -> T = 3
  stochastic.recharge_sigma_min = 15.0;
  const energy::StochasticChargingModel model(stochastic);

  EXPECT_NEAR(model.recharge_quantile(0.5), 45.0, 1e-6);
  EXPECT_GT(model.recharge_quantile(0.9), 45.0);
  EXPECT_LT(model.recharge_quantile(0.1), 45.0);

  const auto nominal = energy::pattern_at_quantile(model, 0.5);
  const auto margin = energy::pattern_at_quantile(model, 0.95);
  EXPECT_NEAR(nominal.rho(), model.rho_prime(), 1e-9);
  EXPECT_GT(margin.rho(), nominal.rho());
  EXPECT_GT(margin.slots_per_period(), nominal.slots_per_period());
}

TEST(ChanceConstrained, GreedyAndLpPlansAreFeasible) {
  const auto bed = Testbed::make(16);
  energy::StochasticChargingConfig stochastic;
  stochastic.event_rate_per_min = 0.3;
  stochastic.mean_event_minutes = 2.0;
  stochastic.continuous_discharge_min = 15.0;
  stochastic.mean_recharge_min = 45.0;
  stochastic.recharge_sigma_min = 15.0;
  const energy::StochasticChargingModel model(stochastic);

  const auto plan = core::plan_chance_constrained(bed.utility, model, 0.95, 4);
  EXPECT_EQ(plan.slots_per_period, plan.pattern.slots_per_period());
  const core::Problem problem(bed.utility, plan.slots_per_period, 4,
                              plan.rho_greater_than_one);
  EXPECT_TRUE(plan.schedule.feasible(problem));
  EXPECT_GT(plan.expected_average_utility, 0.0);

  // LP variant on the same margin pattern.
  const auto detection = std::dynamic_pointer_cast<
      const sub::MultiTargetDetectionUtility>(bed.utility);
  ASSERT_NE(detection, nullptr);
  util::Rng rng(kSeed + 2);
  const auto lp_plan =
      core::plan_chance_constrained_lp(detection, model, 0.95, 4, rng);
  EXPECT_EQ(lp_plan.slots_per_period, plan.slots_per_period);
  EXPECT_TRUE(lp_plan.schedule.feasible(problem));
  EXPECT_GT(lp_plan.expected_average_utility, 0.0);
}

TEST(ChanceConstrained, MarginPlanCutsBrownoutsUnderStretch) {
  // Nominal plan (sunny 15/45, T = 4) vs a margin plan that budgets the
  // recharge side at 1.5x; both face the same physical overcast that
  // stretches an empty-to-full recharge to 1.4 * 45 minutes. The stretch
  // fed to each runtime is relative to *its own* plan: actual recharge
  // minutes over the plan's (T-1) passive slots.
  const auto bed = Testbed::make();
  const double overcast_recharge_min = 1.4 * bed.pattern.recharge_minutes;

  auto nominal_config = bed.base_config(320);
  nominal_config.energy.enabled = true;
  nominal_config.energy.slot_stretch = {
      overcast_recharge_min /
      (static_cast<double>(bed.pattern.slots_per_period() - 1) *
       bed.pattern.slot_minutes())};
  const auto nominal = bed.run(nominal_config);

  energy::ChargingPattern margin_pattern;
  margin_pattern.discharge_minutes = bed.pattern.discharge_minutes;
  margin_pattern.recharge_minutes = bed.pattern.recharge_minutes * 1.5;
  const core::Problem margin_problem(bed.utility,
                                     margin_pattern.slots_per_period(), 8,
                                     margin_pattern.rho() > 1.0);
  auto margin_schedule = core::GreedyScheduler().schedule(margin_problem).schedule;

  RuntimeConfig margin_config;
  margin_config.slots = 320;
  margin_config.pattern = margin_pattern;
  margin_config.energy.enabled = true;
  margin_config.energy.slot_stretch = {
      overcast_recharge_min /
      (static_cast<double>(margin_pattern.slots_per_period() - 1) *
       margin_pattern.slot_minutes())};
  ResilientRuntime margin_runtime(bed.utility, *bed.network, *bed.tree,
                                  *bed.links, bed.radio, margin_schedule,
                                  margin_config, util::Rng(kSeed + 1));
  const auto margin = margin_runtime.run();

  EXPECT_GT(nominal.brownout_declines, 0u);
  EXPECT_LT(margin.brownout_declines, nominal.brownout_declines);
}

}  // namespace
}  // namespace cool::sim
