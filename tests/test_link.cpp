#include "net/link.h"

#include <gtest/gtest.h>

namespace cool::net {
namespace {

// Nodes at distances 2 (near), 9 (edge-ish) and 30 (out of range) from node 0,
// comm radius 10.
Network line_network() {
  std::vector<Sensor> sensors{
      {0, {0.0, 0.0}, 5.0, 10.0},
      {0, {2.0, 0.0}, 5.0, 10.0},
      {0, {9.0, 0.0}, 5.0, 10.0},
      {0, {30.0, 0.0}, 5.0, 10.0},
  };
  return Network(std::move(sensors), {}, geom::Rect({0, 0}, {40, 10}));
}

TEST(LinkModel, NearLinksDeliverAtNearProbability) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(0, 1), 0.98);
}

TEST(LinkModel, EdgeLinksDegrade) {
  const auto network = line_network();
  const LinkModel links(network);
  const double p_edge = links.delivery_probability(0, 2);  // d = 9, range 10
  EXPECT_LT(p_edge, 0.98);
  EXPECT_GT(p_edge, 0.50);
}

TEST(LinkModel, OutOfRangeIsZero) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(links.delivery_probability(3, 0), 0.0);
}

TEST(LinkModel, SelfDeliveryIsCertain) {
  const auto network = line_network();
  const LinkModel links(network);
  EXPECT_DOUBLE_EQ(links.delivery_probability(2, 2), 1.0);
}

TEST(LinkModel, GlobalLossScalesEverything) {
  const auto network = line_network();
  LinkModelConfig config;
  config.global_loss = 0.5;
  const LinkModel lossy(network, config);
  const LinkModel clean(network);
  EXPECT_NEAR(lossy.delivery_probability(0, 1),
              0.5 * clean.delivery_probability(0, 1), 1e-12);
}

TEST(LinkModel, TryDeliverMatchesFrequency) {
  const auto network = line_network();
  const LinkModel links(network);
  util::Rng rng(1);
  int delivered = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (links.try_deliver(0, 2, rng)) ++delivered;
  EXPECT_NEAR(static_cast<double>(delivered) / trials,
              links.delivery_probability(0, 2), 0.01);
}

TEST(LinkModel, Validation) {
  const auto network = line_network();
  LinkModelConfig bad;
  bad.near_delivery = 0.0;
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  bad = {};
  bad.edge_delivery = 0.99;  // above near_delivery
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  bad = {};
  bad.global_loss = 1.0;
  EXPECT_THROW(LinkModel(network, bad), std::invalid_argument);
  const LinkModel links(network);
  EXPECT_THROW(links.delivery_probability(9, 0), std::out_of_range);
}

}  // namespace
}  // namespace cool::net
