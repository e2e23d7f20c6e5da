#include "net/collection.h"

#include <gtest/gtest.h>

namespace cool::net {
namespace {

// 0 - 1 - 2 - 3 chain plus isolated node 4; sink at 0.
Network chain_network() {
  std::vector<Sensor> sensors;
  for (int i = 0; i < 4; ++i)
    sensors.push_back({0, {static_cast<double>(i) * 10.0, 0.0}, 5.0, 11.0});
  sensors.push_back({0, {500.0, 500.0}, 5.0, 11.0});
  return Network(std::move(sensors), {}, geom::Rect({0, 0}, {600, 600}));
}

class DataCollectionTest : public ::testing::Test {
 protected:
  DataCollectionTest()
      : network_(chain_network()), tree_(network_, 0), radio_(),
        collection_(network_, tree_, radio_, /*idle_listen_s=*/1.0) {}

  Network network_;
  RoutingTree tree_;
  RadioEnergyModel radio_;
  DataCollection collection_;
};

TEST_F(DataCollectionTest, SingleLeafOriginator) {
  std::vector<std::uint8_t> active(5, 0);
  active[3] = 1;
  const auto report = collection_.slot_report(active);
  EXPECT_EQ(report.originated, 1u);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.stranded, 0u);
  EXPECT_EQ(report.relayed_total, 2u);  // nodes 2 and 1 forward
  EXPECT_EQ(report.max_relay_load, 1u);
  // Node 3 pays one tx; relays pay rx+tx; idle node 4 pays nothing.
  EXPECT_GT(report.node_energy_j[2], report.node_energy_j[3]);
  EXPECT_DOUBLE_EQ(report.node_energy_j[4], 0.0);
}

TEST_F(DataCollectionTest, StrandedNodeCounted) {
  std::vector<std::uint8_t> active(5, 0);
  active[4] = 1;  // isolated
  const auto report = collection_.slot_report(active);
  EXPECT_EQ(report.originated, 0u);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.stranded, 1u);
}

TEST_F(DataCollectionTest, SinkReadingNeedsNoTransmission) {
  std::vector<std::uint8_t> active(5, 0);
  active[0] = 1;  // the sink itself
  const auto report = collection_.slot_report(active);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.relayed_total, 0u);
  // Sink pays only listen energy.
  EXPECT_NEAR(report.node_energy_j[0], radio_.idle_energy_j(1.0), 1e-12);
}

TEST_F(DataCollectionTest, BottleneckIsNearestToSink) {
  std::vector<std::uint8_t> active(5, 0);
  active[2] = 1;
  active[3] = 1;
  const auto report = collection_.slot_report(active);
  EXPECT_EQ(report.bottleneck_node, 1u);  // forwards for both 2 and 3
  EXPECT_EQ(report.max_relay_load, 2u);
}

TEST_F(DataCollectionTest, EnergyAdditivity) {
  std::vector<std::uint8_t> active(5, 1);
  const auto report = collection_.slot_report(active);
  double sum = 0.0;
  for (const double e : report.node_energy_j) sum += e;
  EXPECT_NEAR(sum, report.radio_energy_j, 1e-12);
}

TEST_F(DataCollectionTest, ScheduleReportScalesByPeriods) {
  std::vector<std::uint8_t> slot0(5, 0), slot1(5, 0);
  slot0[1] = 1;
  slot1[3] = 1;
  const auto once = collection_.schedule_report({slot0, slot1}, 1);
  const auto many = collection_.schedule_report({slot0, slot1}, 12);
  EXPECT_EQ(once.slots, 2u);
  EXPECT_EQ(many.slots, 24u);
  EXPECT_EQ(many.delivered, 12 * once.delivered);
  EXPECT_NEAR(many.radio_energy_j, 12.0 * once.radio_energy_j, 1e-9);
  EXPECT_NEAR(many.hottest_node_energy_j, 12.0 * once.hottest_node_energy_j,
              1e-9);
}

TEST_F(DataCollectionTest, HottestNodeIsTheRelayHub) {
  // All leaves active every slot: node 1 relays the most.
  std::vector<std::uint8_t> everyone(5, 1);
  const auto report = collection_.schedule_report({everyone}, 4);
  EXPECT_EQ(report.hottest_node, 1u);
}

TEST_F(DataCollectionTest, EnergyFreeScheduleHasNoHottestNode) {
  // No listen time and nobody active: no node spends energy, so there is
  // no hottest node to name.
  const DataCollection silent(network_, tree_, radio_, /*idle_listen_s=*/0.0);
  const auto report =
      silent.schedule_report({std::vector<std::uint8_t>(5, 0)}, 3);
  EXPECT_DOUBLE_EQ(report.hottest_node_energy_j, 0.0);
  EXPECT_EQ(report.hottest_node, CollectionSlotReport::kNoNode);
}

TEST_F(DataCollectionTest, RelayFreeSlotHasNoBottleneck) {
  // Node 1 is one hop from the sink: nothing forwards, so there is no
  // bottleneck to name (the old code pinned node 0 here).
  std::vector<std::uint8_t> active(5, 0);
  active[1] = 1;
  const auto report = collection_.slot_report(active);
  EXPECT_EQ(report.max_relay_load, 0u);
  EXPECT_EQ(report.bottleneck_node, CollectionSlotReport::kNoNode);
}

// Audit of the slot accounting against a hand-built 5-node tree:
//
//   4 -- 0(sink) -- 1 -- 2
//                    \-- 3
//
// Every quantity below is computed by hand from the topology.
TEST(DataCollectionAudit, FiveNodeTreeMatchesHandAccounting) {
  std::vector<Sensor> sensors{
      {0, {0.0, 0.0}, 5.0, 11.0},    // sink
      {1, {10.0, 0.0}, 5.0, 11.0},   // relay hub
      {2, {10.0, 10.0}, 5.0, 11.0},  // leaf under 1
      {3, {20.0, 0.0}, 5.0, 11.0},   // leaf under 1
      {4, {-10.0, 0.0}, 5.0, 11.0},  // leaf under the sink
  };
  const Network network(std::move(sensors), {}, geom::Rect({-20, 0}, {30, 20}));
  const RoutingTree tree(network, 0);
  ASSERT_EQ(tree.parent(1), 0u);
  ASSERT_EQ(tree.parent(2), 1u);
  ASSERT_EQ(tree.parent(3), 1u);
  ASSERT_EQ(tree.parent(4), 0u);
  const RadioEnergyModel radio;
  const double listen = 1.0;
  const DataCollection collection(network, tree, radio, listen);

  const std::vector<std::uint8_t> everyone(5, 1);
  const auto report = collection.slot_report(everyone);
  EXPECT_EQ(report.originated, 5u);
  EXPECT_EQ(report.delivered, 5u);
  EXPECT_EQ(report.stranded, 0u);
  // Only node 1 forwards: one packet each for leaves 2 and 3. Originations
  // are not relays, and the sink never forwards.
  EXPECT_EQ(report.relayed_total, 2u);
  EXPECT_EQ(report.max_relay_load, 2u);
  EXPECT_EQ(report.bottleneck_node, 1u);
  // Hand-computed per-node energy: sink listens only (lossless model: sink
  // rx is billed to the gateway mains, not the battery); the hub pays its
  // own tx plus rx+tx per relayed packet; leaves pay one tx each.
  EXPECT_NEAR(report.node_energy_j[0], radio.idle_energy_j(listen), 1e-12);
  EXPECT_NEAR(report.node_energy_j[1],
              radio.tx_energy_j() +
                  2.0 * (radio.rx_energy_j() + radio.tx_energy_j()) +
                  radio.idle_energy_j(listen),
              1e-12);
  for (const std::size_t leaf : {2u, 3u, 4u})
    EXPECT_NEAR(report.node_energy_j[leaf],
                radio.tx_energy_j() + radio.idle_energy_j(listen), 1e-12);
  double sum = 0.0;
  for (const double e : report.node_energy_j) sum += e;
  EXPECT_NEAR(sum, report.radio_energy_j, 1e-12);

  // Leaves only: the hub relays all three leaf packets (its own reading is
  // off this slot) and node 4's packet goes straight to the sink.
  std::vector<std::uint8_t> leaves(5, 0);
  leaves[2] = leaves[3] = leaves[4] = 1;
  const auto leaf_report = collection.slot_report(leaves);
  EXPECT_EQ(leaf_report.originated, 3u);
  EXPECT_EQ(leaf_report.delivered, 3u);
  EXPECT_EQ(leaf_report.relayed_total, 2u);
  EXPECT_EQ(leaf_report.bottleneck_node, 1u);
  // The hub is not active but must still be billed as a radio-on relay.
  EXPECT_NEAR(leaf_report.node_energy_j[1],
              2.0 * (radio.rx_energy_j() + radio.tx_energy_j()) +
                  radio.idle_energy_j(listen),
              1e-12);

  // Sink-adjacent node only: zero relays anywhere, so no bottleneck.
  std::vector<std::uint8_t> near_sink(5, 0);
  near_sink[4] = 1;
  const auto near_report = collection.slot_report(near_sink);
  EXPECT_EQ(near_report.delivered, 1u);
  EXPECT_EQ(near_report.relayed_total, 0u);
  EXPECT_EQ(near_report.bottleneck_node, CollectionSlotReport::kNoNode);
}

TEST_F(DataCollectionTest, Validation) {
  std::vector<std::uint8_t> wrong(2, 1);
  EXPECT_THROW(collection_.slot_report(wrong), std::invalid_argument);
  EXPECT_THROW(collection_.schedule_report({}, 1), std::invalid_argument);
  std::vector<std::uint8_t> ok(5, 0);
  EXPECT_THROW(collection_.schedule_report({ok}, 0), std::invalid_argument);
  EXPECT_THROW(DataCollection(network_, tree_, radio_, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cool::net
