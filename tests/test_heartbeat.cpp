#include "proto/heartbeat.h"

#include <gtest/gtest.h>

#include <vector>

namespace cool::proto {
namespace {

// sink(0) -- relay(1) -- leaf(2): only adjacent pairs are in comm range.
net::Network chain_network() {
  std::vector<net::Sensor> sensors{
      {0, {0.0, 0.0}, 5.0, 12.0},
      {1, {10.0, 0.0}, 5.0, 12.0},
      {2, {20.0, 0.0}, 5.0, 12.0},
  };
  return net::Network(std::move(sensors), {}, geom::Rect({0, 0}, {30, 10}));
}

net::LinkModel perfect_links(const net::Network& network) {
  net::LinkModelConfig config;
  config.near_delivery = 1.0;
  config.edge_delivery = 1.0;
  return net::LinkModel(network, config);
}

HeartbeatConfig fast_config() {
  HeartbeatConfig config;
  config.timeout_slots = 2;
  config.suspect_windows = 1;
  config.backoff_factor = 2.0;
  config.max_timeout_slots = 16;
  return config;
}

TEST(HeartbeatDetector, AllAliveStaysAlive) {
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const auto links = perfect_links(network);
  const net::RadioEnergyModel radio;
  HeartbeatDetector detector(network, tree, links, radio, fast_config());
  util::Rng rng(1);
  const std::vector<std::uint8_t> up(3, 1);
  for (std::size_t slot = 0; slot < 20; ++slot) {
    const auto report = detector.step(slot, up, rng);
    EXPECT_EQ(report.heartbeats_sent, 3u);
    EXPECT_EQ(report.heartbeats_delivered, 3u);
    EXPECT_TRUE(report.newly_suspected.empty());
    EXPECT_TRUE(report.newly_dead.empty());
  }
  for (std::size_t v = 0; v < 3; ++v)
    EXPECT_EQ(detector.verdict(v), NodeVerdict::kAlive);
  EXPECT_EQ(detector.stats().false_suspicions, 0u);
  EXPECT_GT(detector.stats().transmissions, 0u);
  EXPECT_GT(detector.stats().radio_energy_j, 0.0);
}

TEST(HeartbeatDetector, DeadNodeDeclaredOnSchedule) {
  // timeout 2, suspect_windows 1: a node last heard at slot d-1 becomes
  // suspect at the first slot with silence > 2 (d + 2) and dead at the
  // first slot with silence > 4 (d + 4).
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const auto links = perfect_links(network);
  const net::RadioEnergyModel radio;
  HeartbeatDetector detector(network, tree, links, radio, fast_config());
  util::Rng rng(2);
  std::vector<std::uint8_t> up(3, 1);
  for (std::size_t slot = 0; slot < 5; ++slot) detector.step(slot, up, rng);
  up[2] = 0;  // leaf dies after its slot-4 heartbeat
  for (std::size_t slot = 5; slot < 7; ++slot) {
    const auto report = detector.step(slot, up, rng);
    EXPECT_TRUE(report.newly_suspected.empty()) << "slot " << slot;
  }
  const auto suspect_report = detector.step(7, up, rng);  // silence = 3 > 2
  ASSERT_EQ(suspect_report.newly_suspected.size(), 1u);
  EXPECT_EQ(suspect_report.newly_suspected[0], 2u);
  detector.step(8, up, rng);
  const auto dead_report = detector.step(9, up, rng);  // silence = 5 > 4
  ASSERT_EQ(dead_report.newly_dead.size(), 1u);
  EXPECT_EQ(dead_report.newly_dead[0], 2u);
  EXPECT_EQ(detector.verdict(2), NodeVerdict::kDead);
  EXPECT_EQ(detector.believed_dead(), (std::vector<std::uint8_t>{0, 0, 1}));
  EXPECT_EQ(detector.stats().declared_dead, 1u);
}

TEST(HeartbeatDetector, DownRelaySilencesSubtreeThenBacksOff) {
  // The relay's outage makes the (healthy) leaf look dead; when the relay
  // recovers, the leaf's heartbeat clears the suspicion, counts as a false
  // alarm, and doubles the leaf's timeout.
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const auto links = perfect_links(network);
  const net::RadioEnergyModel radio;
  HeartbeatDetector detector(network, tree, links, radio, fast_config());
  util::Rng rng(3);
  std::vector<std::uint8_t> up(3, 1);
  for (std::size_t slot = 0; slot < 5; ++slot) detector.step(slot, up, rng);
  up[1] = 0;  // relay down: both relay and leaf go silent
  bool leaf_suspected = false;
  for (std::size_t slot = 5; slot < 9; ++slot) {
    const auto report = detector.step(slot, up, rng);
    for (const auto v : report.newly_suspected)
      if (v == 2) leaf_suspected = true;
  }
  EXPECT_TRUE(leaf_suspected);
  up[1] = 1;  // relay recovers before the leaf is declared dead
  detector.step(9, up, rng);
  EXPECT_EQ(detector.verdict(2), NodeVerdict::kAlive);
  EXPECT_GE(detector.stats().false_suspicions, 1u);
  // The leaf's next suspicion now needs silence > 4 instead of > 2: after
  // another 3-slot relay outage the leaf must still be trusted alive.
  up[1] = 0;
  detector.step(10, up, rng);
  detector.step(11, up, rng);
  detector.step(12, up, rng);
  EXPECT_EQ(detector.verdict(2), NodeVerdict::kAlive);
}

TEST(HeartbeatDetector, LateHeartbeatFromDeclaredDeadIsCounted) {
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const auto links = perfect_links(network);
  const net::RadioEnergyModel radio;
  HeartbeatDetector detector(network, tree, links, radio, fast_config());
  util::Rng rng(4);
  std::vector<std::uint8_t> up{1, 0, 1};  // relay down from the start
  std::size_t slot = 0;
  while (detector.verdict(2) != NodeVerdict::kDead && slot < 50)
    detector.step(slot++, up, rng);
  ASSERT_EQ(detector.verdict(2), NodeVerdict::kDead);  // false declaration
  up[1] = 1;
  detector.step(slot, up, rng);
  EXPECT_GE(detector.stats().heartbeats_from_dead, 1u);
  EXPECT_EQ(detector.verdict(2), NodeVerdict::kDead);  // absorbing
}

// Lossy links make a healthy fleet look flaky: the false-suspicion rate
// rises with global_loss, and the timeout backoff keeps it bounded — the
// same loss produces far fewer false alarms than a detector whose timeout
// never grows.
TEST(HeartbeatDetector, FalseSuspicionsRiseWithGlobalLossBoundedByBackoff) {
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const net::RadioEnergyModel radio;
  const std::vector<std::uint8_t> up(3, 1);

  const auto false_suspicions = [&](double global_loss, double backoff_factor) {
    net::LinkModelConfig link_config;
    link_config.near_delivery = 1.0;
    link_config.edge_delivery = 1.0;
    link_config.global_loss = global_loss;
    const net::LinkModel links(network, link_config);
    HeartbeatConfig config;
    config.timeout_slots = 2;
    config.suspect_windows = 30;  // suspicion is cheap, death needs ~a minute
    config.backoff_factor = backoff_factor;
    config.max_timeout_slots = 16;
    config.max_retransmissions = 0;  // every loss is a missed heartbeat
    HeartbeatDetector detector(network, tree, links, radio, config);
    util::Rng rng(99);  // same seed everywhere: only the knobs differ
    for (std::size_t slot = 0; slot < 2000; ++slot)
      detector.step(slot, up, rng);
    // Everyone is up the whole time: every suspicion is false.
    EXPECT_EQ(detector.stats().declared_dead, 0u)
        << "loss " << global_loss << " factor " << backoff_factor;
    return detector.stats().false_suspicions;
  };

  const std::size_t fp_clean = false_suspicions(0.0, 2.0);
  const std::size_t fp_light = false_suspicions(0.2, 2.0);
  const std::size_t fp_heavy = false_suspicions(0.45, 2.0);
  EXPECT_EQ(fp_clean, 0u);
  EXPECT_GT(fp_heavy, fp_light);  // FP rate rises with loss
  EXPECT_GT(fp_light, 0u);

  // Backoff bound: with the same heavy loss, a growing timeout absorbs the
  // flakiness that a fixed timeout keeps paging about.
  const std::size_t fp_no_backoff = false_suspicions(0.45, 1.0);
  EXPECT_LT(fp_heavy, fp_no_backoff);
}

TEST(HeartbeatDetector, Validation) {
  const auto network = chain_network();
  const net::RoutingTree tree(network, 0);
  const auto links = perfect_links(network);
  const net::RadioEnergyModel radio;
  HeartbeatConfig config;
  config.timeout_slots = 0;
  EXPECT_THROW(HeartbeatDetector(network, tree, links, radio, config),
               std::invalid_argument);
  config = {};
  config.backoff_factor = 0.5;
  EXPECT_THROW(HeartbeatDetector(network, tree, links, radio, config),
               std::invalid_argument);
  config = {};
  config.max_timeout_slots = 1;
  EXPECT_THROW(HeartbeatDetector(network, tree, links, radio, config),
               std::invalid_argument);
  HeartbeatDetector detector(network, tree, links, radio);
  util::Rng rng(5);
  EXPECT_THROW(detector.step(0, std::vector<std::uint8_t>(2, 1), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::proto
