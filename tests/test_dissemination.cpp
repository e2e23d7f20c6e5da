#include "proto/dissemination.h"

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "energy/pattern.h"
#include "submodular/detection.h"

namespace cool::proto {
namespace {

// A 3-hop chain 0-1-2-3 plus an isolated node 4; sink at 0.
net::Network chain_network() {
  std::vector<net::Sensor> sensors;
  for (int i = 0; i < 4; ++i)
    sensors.push_back({0, {static_cast<double>(i) * 8.0, 0.0}, 30.0, 10.0});
  sensors.push_back({0, {200.0, 200.0}, 30.0, 10.0});
  return net::Network(std::move(sensors), {}, geom::Rect({0, 0}, {300, 300}));
}

core::PeriodicSchedule everyone_schedule(std::size_t n, std::size_t T) {
  core::PeriodicSchedule s(n, T);
  for (std::size_t v = 0; v < n; ++v) s.set_active(v, v % T);
  return s;
}

struct Fixture {
  Fixture(const net::LinkModelConfig& link_config = {})
      : network(chain_network()), tree(network, 0),
        links(network, link_config), radio() {}
  net::Network network;
  net::RoutingTree tree;
  net::LinkModel links;
  net::RadioEnergyModel radio;
};

TEST(Dissemination, PerfectLinksDeliverEveryReachableNode) {
  net::LinkModelConfig perfect;
  perfect.near_delivery = 1.0;
  perfect.edge_delivery = 1.0;
  Fixture f(perfect);
  const ScheduleDissemination proto(f.network, f.tree, f.links, f.radio);
  const auto schedule = everyone_schedule(5, 4);
  util::Rng rng(1);
  const auto report = proto.disseminate(schedule, rng);
  EXPECT_EQ(report.nodes_targeted, 5u);
  EXPECT_EQ(report.nodes_delivered, 4u);     // node 4 is unreachable
  EXPECT_EQ(report.nodes_unreachable, 1u);
  EXPECT_EQ(report.hop_failures, 0u);
  // Hop counts: node1: 1 hop, node2: 2, node3: 3 = 6 data messages, no
  // retransmissions on perfect links.
  EXPECT_EQ(report.data_transmissions, 6u);
  EXPECT_EQ(report.ack_transmissions, 6u);
  EXPECT_GT(report.radio_energy_j, 0.0);
}

TEST(Dissemination, SinkDeliversToItselfForFree) {
  net::LinkModelConfig perfect;
  perfect.near_delivery = 1.0;
  perfect.edge_delivery = 1.0;
  Fixture f(perfect);
  const ScheduleDissemination proto(f.network, f.tree, f.links, f.radio);
  core::PeriodicSchedule only_sink(5, 4);
  only_sink.set_active(0, 0);
  util::Rng rng(2);
  const auto report = proto.disseminate(only_sink, rng);
  EXPECT_EQ(report.nodes_delivered, 1u);
  EXPECT_EQ(report.data_transmissions, 0u);
  EXPECT_DOUBLE_EQ(report.radio_energy_j, 0.0);
}

TEST(Dissemination, LossyLinksCostRetransmissions) {
  net::LinkModelConfig lossy;
  lossy.global_loss = 0.4;
  Fixture f(lossy);
  const ScheduleDissemination proto(f.network, f.tree, f.links, f.radio);
  const auto schedule = everyone_schedule(5, 4);
  util::Rng rng(3);
  const auto report = proto.disseminate(schedule, rng);
  // 6 hops minimum; heavy loss must force extra transmissions.
  EXPECT_GT(report.data_transmissions, 6u);
}

TEST(Dissemination, ZeroRetransmissionsDropNodesUnderHeavyLoss) {
  net::LinkModelConfig lossy;
  lossy.global_loss = 0.6;
  Fixture f(lossy);
  DisseminationConfig config;
  config.max_retransmissions = 0;
  const ScheduleDissemination proto(f.network, f.tree, f.links, f.radio, config);
  const auto schedule = everyone_schedule(5, 4);
  // Across several seeds, at least one multi-hop delivery must fail.
  std::size_t failures = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    failures += proto.disseminate(schedule, rng).hop_failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(Dissemination, EffectiveScheduleSilencesUndelivered) {
  const auto schedule = everyone_schedule(5, 4);
  DisseminationReport report;
  report.delivered = {1, 0, 1, 0, 0};
  const auto effective =
      ScheduleDissemination::effective_schedule(schedule, report);
  EXPECT_EQ(effective.active_count(0), 1u);
  EXPECT_EQ(effective.active_count(1), 0u);
  EXPECT_EQ(effective.active_count(2), 1u);
  EXPECT_EQ(effective.active_count(3), 0u);
  DisseminationReport bad;
  bad.delivered = {1};
  EXPECT_THROW(ScheduleDissemination::effective_schedule(schedule, bad),
               std::invalid_argument);
}

TEST(Dissemination, UtilityDegradesWithLoss) {
  // End-to-end: loss -> fewer delivered assignments -> lower utility.
  net::LinkModelConfig heavy;
  heavy.global_loss = 0.55;
  Fixture clean_f, lossy_f(heavy);
  DisseminationConfig one_try;
  one_try.max_retransmissions = 0;

  auto utility = std::make_shared<sub::DetectionUtility>(
      std::vector<double>(5, 0.4));
  const core::Problem problem(utility, 4, 1, true);
  const auto schedule = everyone_schedule(5, 4);

  const ScheduleDissemination clean_proto(clean_f.network, clean_f.tree,
                                          clean_f.links, clean_f.radio);
  const ScheduleDissemination lossy_proto(lossy_f.network, lossy_f.tree,
                                          lossy_f.links, lossy_f.radio, one_try);
  util::Rng rng_a(7), rng_b(7);
  const auto clean_eff = ScheduleDissemination::effective_schedule(
      schedule, clean_proto.disseminate(schedule, rng_a));
  const auto lossy_eff = ScheduleDissemination::effective_schedule(
      schedule, lossy_proto.disseminate(schedule, rng_b));
  EXPECT_GE(core::evaluate(problem, clean_eff).total_utility,
            core::evaluate(problem, lossy_eff).total_utility);
}

TEST(Dissemination, ScheduleShapeMismatchThrows) {
  Fixture f;
  const ScheduleDissemination proto(f.network, f.tree, f.links, f.radio);
  util::Rng rng(9);
  EXPECT_THROW(proto.disseminate(core::PeriodicSchedule(3, 4), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::proto
