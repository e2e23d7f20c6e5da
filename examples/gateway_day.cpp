// Gateway day: the complete operational pipeline a deployment runs every
// morning, end to end through every layer of this library —
//
//   1. overnight charging traces from a probe fleet        (energy)
//   2. fleet-median estimate of today's (Td, Tr) ratio     (energy)
//   3. greedy activation schedule for the derived period   (core)
//   4. schedule dissemination over lossy links with ARQ    (proto)
//   5. clock-sync audit for the slot structure             (proto)
//   6. the working day under physical harvest + faults     (sim)
//   7. data collection accounting over the routing tree    (net)
//   8. per-target service report and fairness              (core)
//
//   ./gateway_day [--sensors 50] [--targets 8] [--seed 42]
//                 [--trace day.trace.json] [--metrics day.metrics.json]
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "core/report.h"
#include "energy/pattern.h"
#include "energy/trace.h"
#include "net/collection.h"
#include "net/network.h"
#include "net/routing.h"
#include "obs/session.h"
#include "proto/dissemination.h"
#include "proto/timesync.h"
#include "sim/simulator.h"
#include "util/cli.h"
#include "util/strings.h"

int main(int argc, char** argv) try {
  cool::util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("sensors", 50));
  const auto m = static_cast<std::size_t>(cli.get_int("targets", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  auto obs = cool::obs::ObsSession::from_cli(cli);
  cli.finish();

  // --- 0. the deployment ---
  cool::net::NetworkConfig net_config;
  net_config.sensor_count = n;
  net_config.target_count = m;
  net_config.region_side = 140.0;
  net_config.sensing_radius = 40.0;
  net_config.comm_radius = 45.0;
  cool::util::Rng rng(seed);
  const auto network = cool::net::make_random_network(net_config, rng);
  const auto sink = cool::net::choose_best_sink(network);
  const cool::net::RoutingTree tree(network, sink);
  std::printf("[deploy]    %zu sensors, %zu targets; sink %zu reaches %zu/%zu\n",
              n, m, sink, tree.reachable_count(), n);

  // --- 1+2. estimate today's charging pattern from probe traces ---
  cool::energy::TraceConfig trace_config;
  trace_config.mode = cool::energy::TraceConfig::Mode::kCycling;
  const auto today = cool::energy::Weather::kSunny;
  std::vector<cool::energy::ChargingTrace> traces;
  for (int probe = 0; probe < 5; ++probe) {
    cool::util::Rng trace_rng(seed + 300 + static_cast<std::uint64_t>(probe));
    traces.push_back(cool::energy::generate_daily_trace(trace_config, today,
                                                        probe, 0, trace_rng));
  }
  const auto pattern = cool::energy::estimate_fleet_pattern(
      traces, trace_config.node, 10.0 * 60.0, 12.0 * 60.0);
  std::printf("[estimate]  fleet median: Td=%.1f min, Tr=%.1f min, rho=%.2f "
              "-> T=%zu slots\n",
              pattern.discharge_minutes, pattern.recharge_minutes,
              pattern.rho(), pattern.slots_per_period());

  // --- 3. schedule ---
  const std::size_t periods = static_cast<std::size_t>(
      720.0 / (pattern.slot_minutes() *
               static_cast<double>(pattern.slots_per_period())));
  const auto problem =
      cool::core::Problem::detection_instance(network, 0.4, pattern, periods);
  const auto schedule = cool::core::GreedyScheduler().schedule(problem).schedule;
  const auto ideal = cool::core::evaluate(problem, schedule);
  std::printf("[schedule]  greedy over %zu periods; ideal avg utility "
              "%.4f/slot\n", periods, ideal.per_slot_average);

  // --- 4. dissemination ---
  cool::net::LinkModelConfig link_config;
  link_config.global_loss = 0.15;
  const cool::net::LinkModel links(network, link_config);
  const cool::net::RadioEnergyModel radio;
  const cool::proto::ScheduleDissemination dissemination(network, tree, links,
                                                         radio);
  cool::util::Rng proto_rng(seed + 1);
  const auto delivery = dissemination.disseminate(schedule, proto_rng);
  const auto effective =
      cool::proto::ScheduleDissemination::effective_schedule(schedule, delivery);
  std::printf("[dissem]    %zu/%zu assignments delivered (%zu msgs, %.1f mJ)\n",
              delivery.nodes_delivered, delivery.nodes_targeted,
              delivery.data_transmissions, delivery.radio_energy_j * 1000.0);

  // --- 5. clock sync audit ---
  cool::proto::TimeSyncSimulator sync(tree, {}, cool::util::Rng(seed + 2));
  const auto sync_report = sync.run(100);
  std::printf("[timesync]  max clock error %.1f ms = %.2e of a slot\n",
              sync_report.max_error_ms,
              sync_report.worst_slot_misalignment(pattern.slot_minutes()));

  // --- 6. the working day (physical harvest + transient faults) ---
  cool::sim::SimConfig sim_config;
  sim_config.backend = cool::sim::EnergyBackend::kHarvest;
  sim_config.days = 1;
  sim_config.slots_per_day = problem.horizon_slots();
  sim_config.slot_minutes = pattern.slot_minutes();
  sim_config.pattern = pattern;
  sim_config.initial_weather = today;
  sim_config.faults.kind = cool::sim::FaultKind::kTransient;
  sim_config.faults.failure_rate_per_slot = 0.01;
  cool::sim::SchedulePolicy policy(effective);
  cool::sim::Simulator simulator(problem.slot_utility_ptr(), sim_config,
                                 cool::util::Rng(seed + 3));
  const auto day = simulator.run(policy);
  std::printf("[run]       measured avg utility %.4f/slot (%zu activations, "
              "%zu energy violations, %zu faults)\n",
              day.average_utility_per_slot, day.activations,
              day.energy_violations, day.failures_injected);

  // --- 7. data collection accounting ---
  const cool::net::DataCollection collection(network, tree, radio);
  std::vector<std::vector<std::uint8_t>> masks;
  for (std::size_t t = 0; t < effective.slots_per_period(); ++t)
    masks.push_back(effective.active_mask(t));
  const auto traffic = collection.schedule_report(masks, periods);
  std::printf("[collect]   %zu readings delivered to the sink; hottest relay "
              "node %zu spent %.1f mJ\n",
              traffic.delivered, traffic.hottest_node,
              traffic.hottest_node_energy_j * 1000.0);

  // --- 8. per-target service report ---
  const auto& utility = dynamic_cast<const cool::sub::MultiTargetDetectionUtility&>(
      problem.slot_utility());
  const auto service = cool::core::per_target_report(utility, effective);
  std::printf("[service]   fairness %.3f; worst target avg %.4f; "
              "%zu underserved\n",
              service.fairness, service.min_average, service.underserved.size());

  std::printf("\ngateway day complete: %.1f%% of the ideal schedule's utility "
              "survived dissemination loss, physical energy and faults.\n",
              100.0 * day.average_utility_per_slot / ideal.per_slot_average);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
