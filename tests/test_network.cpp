#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "geometry/deployment.h"
#include "obs/prof.h"

namespace cool::net {
namespace {

Network tiny_network() {
  // Sensors on a line at x = 0, 10, 20 with sensing radius 6, comm radius 12.
  std::vector<Sensor> sensors{
      {0, {0.0, 0.0}, 6.0, 12.0},
      {0, {10.0, 0.0}, 6.0, 12.0},
      {0, {20.0, 0.0}, 6.0, 12.0},
  };
  // Targets: one near sensor 0, one between sensors 1 and 2, one uncovered.
  std::vector<Target> targets{
      {0, {2.0, 0.0}, 1.0},
      {0, {15.0, 0.0}, 1.0},
      {0, {40.0, 0.0}, 1.0},
  };
  return Network(std::move(sensors), std::move(targets),
                 geom::Rect({-5.0, -5.0}, {45.0, 5.0}));
}

TEST(Network, IdsAreReassignedSequentially) {
  const auto net = tiny_network();
  for (std::size_t i = 0; i < net.sensor_count(); ++i)
    EXPECT_EQ(net.sensors()[i].id, i);
  for (std::size_t i = 0; i < net.target_count(); ++i)
    EXPECT_EQ(net.targets()[i].id, i);
}

TEST(Network, CoverageRelation) {
  const auto net = tiny_network();
  EXPECT_EQ(net.covering_sensors(0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(net.covering_sensors(1), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(net.covering_sensors(2).empty());
  EXPECT_TRUE(net.covers(1, 1));
  EXPECT_FALSE(net.covers(0, 1));
  EXPECT_THROW(net.covering_sensors(9), std::out_of_range);
}

TEST(Network, UncoveredTargets) {
  const auto net = tiny_network();
  EXPECT_EQ(net.uncovered_targets(), (std::vector<std::size_t>{2}));
}

TEST(Network, NeighborsSymmetricDiskGraph) {
  const auto net = tiny_network();
  EXPECT_EQ(net.neighbors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(net.neighbors(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(net.neighbors(2), (std::vector<std::size_t>{1}));
}

TEST(Network, NeighborListsBuiltOnFirstUseAreShared) {
  // The comm graph is built by the first neighbors() call. Copies made
  // before it share the one build, and racing first calls agree.
  const auto net = tiny_network();
  const Network copy = net;
  std::vector<const std::vector<std::size_t>*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < seen.size(); ++k)
    threads.emplace_back([&, k] {
      seen[k] = &(k % 2 == 0 ? net : copy).neighbors(1);
    });
  for (auto& thread : threads) thread.join();
  for (const auto* list : seen) {
    EXPECT_EQ(list, seen[0]);
    EXPECT_EQ(*list, (std::vector<std::size_t>{0, 2}));
  }
  EXPECT_THROW(copy.neighbors(3), std::out_of_range);
}

TEST(Network, SensingDisksAlign) {
  const auto net = tiny_network();
  const auto disks = net.sensing_disks();
  ASSERT_EQ(disks.size(), 3u);
  EXPECT_DOUBLE_EQ(disks[1].radius, 6.0);
  EXPECT_DOUBLE_EQ(disks[2].center.x, 20.0);
}

TEST(Network, NegativeRadiusThrows) {
  std::vector<Sensor> sensors{{0, {0.0, 0.0}, -1.0, 5.0}};
  EXPECT_THROW(Network(std::move(sensors), {}, geom::Rect::square(10.0)),
               std::invalid_argument);
}

TEST(Network, NonFiniteInputThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto region = geom::Rect::square(10.0);
  const auto build = [&](Sensor sensor, geom::Vec2 target) {
    return Network({{0, {1.0, 1.0}, 2.0, 3.0}, sensor}, {{0, target, 1.0}},
                   region);
  };
  EXPECT_THROW(build({0, {nan, 1.0}, 2.0, 3.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({0, {1.0, inf}, 2.0, 3.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({0, {1.0, 1.0}, nan, 3.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({0, {1.0, 1.0}, 2.0, nan}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({0, {1.0, 1.0}, 2.0, 3.0}, {-inf, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({0, {1.0, 1.0}, 2.0, 3.0}, {1.0, nan}), std::invalid_argument);
  // An infinite radius is a valid "reaches everything".
  const auto net = build({0, {9.0, 9.0}, inf, inf}, {1.0, 1.0});
  EXPECT_EQ(net.covering_sensors(0), (std::vector<std::size_t>{0, 1}));

  NetworkConfig config;
  config.sensing_radius = nan;
  util::Rng rng(1);
  EXPECT_THROW(make_random_network(config, rng), std::invalid_argument);
}


TEST(MakeRandomNetwork, CountsAndRegion) {
  NetworkConfig config;
  config.sensor_count = 120;
  config.target_count = 7;
  util::Rng rng(1);
  const auto net = make_random_network(config, rng);
  EXPECT_EQ(net.sensor_count(), 120u);
  EXPECT_EQ(net.target_count(), 7u);
  for (const auto& s : net.sensors())
    EXPECT_TRUE(net.region().contains(s.position));
}

TEST(MakeRandomNetwork, EnsureCoverageLeavesNoOrphanTargets) {
  NetworkConfig config;
  config.sensor_count = 10;      // sparse: orphans likely without the fix
  config.target_count = 8;
  config.sensing_radius = 5.0;
  config.region_side = 200.0;
  util::Rng rng(2);
  const auto net = make_random_network(config, rng);
  EXPECT_TRUE(net.uncovered_targets().empty());
}

TEST(MakeRandomNetwork, WithoutEnsureCoverageOrphansMayExist) {
  NetworkConfig config;
  config.sensor_count = 5;
  config.target_count = 40;
  config.sensing_radius = 3.0;
  config.region_side = 300.0;
  config.ensure_coverage = false;
  util::Rng rng(3);
  const auto net = make_random_network(config, rng);
  EXPECT_FALSE(net.uncovered_targets().empty());
}

TEST(MakeRandomNetwork, LayoutsProduceValidNetworks) {
  for (const auto layout :
       {NetworkConfig::Layout::kUniform, NetworkConfig::Layout::kGrid,
        NetworkConfig::Layout::kClustered}) {
    NetworkConfig config;
    config.layout = layout;
    config.sensor_count = 60;
    config.target_count = 5;
    util::Rng rng(4);
    const auto net = make_random_network(config, rng);
    EXPECT_EQ(net.sensor_count(), 60u);
  }
}

TEST(MakeRandomNetwork, ZeroSensorsThrows) {
  NetworkConfig config;
  config.sensor_count = 0;
  util::Rng rng(5);
  EXPECT_THROW(make_random_network(config, rng), std::invalid_argument);
}

TEST(MakeRandomNetwork, DeterministicPerSeed) {
  NetworkConfig config;
  util::Rng a(7), b(7);
  const auto na = make_random_network(config, a);
  const auto nb = make_random_network(config, b);
  EXPECT_EQ(na.sensors()[13].position.x, nb.sensors()[13].position.x);
}

// Differential reference: the all-pairs construction the grid replaced,
// kept verbatim so the grid build can be checked against it bit for bit.
struct Reference {
  std::vector<std::vector<std::size_t>> covers;     // by target
  std::vector<std::vector<std::size_t>> neighbors;  // by sensor
};

Reference all_pairs(const std::vector<Sensor>& sensors,
                    const std::vector<Target>& targets) {
  Reference ref;
  ref.covers.resize(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      const double r = sensors[s].sensing_radius;
      if (sensors[s].position.distance2_to(targets[t].position) <= r * r)
        ref.covers[t].push_back(s);
    }
  }
  ref.neighbors.resize(sensors.size());
  for (std::size_t a = 0; a < sensors.size(); ++a) {
    for (std::size_t b = a + 1; b < sensors.size(); ++b) {
      const double reach = std::min(sensors[a].comm_radius, sensors[b].comm_radius);
      if (sensors[a].position.distance2_to(sensors[b].position) <= reach * reach) {
        ref.neighbors[a].push_back(b);
        ref.neighbors[b].push_back(a);
      }
    }
  }
  return ref;
}

// make_random_network's placement with the all-pairs coverage sweep.
// Returns the sensor positions; `relocated` counts the sensors it moved.
std::vector<geom::Vec2> all_pairs_positions(const NetworkConfig& config,
                                            util::Rng& rng,
                                            std::size_t* relocated) {
  const auto region = geom::Rect::square(config.region_side);
  std::vector<geom::Vec2> positions;
  switch (config.layout) {
    case NetworkConfig::Layout::kUniform:
      positions = geom::uniform_points(region, config.sensor_count, rng);
      break;
    case NetworkConfig::Layout::kGrid:
      positions = geom::grid_points(region, config.sensor_count, 0.2, rng);
      break;
    case NetworkConfig::Layout::kClustered:
      positions = geom::clustered_points(region, config.sensor_count,
                                         config.clusters, config.cluster_spread, rng);
      break;
  }
  const auto target_positions =
      geom::uniform_points(region, config.target_count, rng);
  *relocated = 0;
  if (!config.ensure_coverage) return positions;
  std::vector<std::uint8_t> pinned(positions.size(), 0);
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& tp : target_positions) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t nearest = positions.size();
      bool covered = false;
      for (std::size_t s = 0; s < positions.size(); ++s) {
        const double d2 = positions[s].distance2_to(tp);
        if (d2 <= config.sensing_radius * config.sensing_radius) {
          covered = true;
          break;
        }
        if (!pinned[s] && d2 < best) {
          best = d2;
          nearest = s;
        }
      }
      if (!covered && nearest < positions.size()) {
        positions[nearest] = tp;
        pinned[nearest] = 1;
        moved = true;
        ++*relocated;
      }
    }
  }
  return positions;
}

void expect_matches_all_pairs(const Network& net) {
  const auto ref = all_pairs(net.sensors(), net.targets());
  EXPECT_EQ(net.coverage(), ref.covers);
  for (std::size_t s = 0; s < net.sensor_count(); ++s) {
    ASSERT_EQ(net.neighbors(s), ref.neighbors[s]) << "sensor " << s;
  }
}

TEST(GridConstruction, MakeRandomNetworkMatchesAllPairsOnEveryLayout) {
  struct Shape {
    std::size_t sensors, targets;
    double side, sensing, comm;
  };
  // Dense, coold-like sparse (region grows with n), and sparse enough that
  // ensure_coverage relocates many sensors.
  const Shape shapes[] = {{300, 31, 200.0, 40.0, 30.0},
                          {600, 60, 387.0, 15.0, 30.0},
                          {200, 120, 900.0, 8.0, 60.0}};
  std::size_t relocations = 0;
  for (const auto layout :
       {NetworkConfig::Layout::kUniform, NetworkConfig::Layout::kGrid,
        NetworkConfig::Layout::kClustered}) {
    for (const bool ensure : {true, false}) {
      for (const auto& shape : shapes) {
        NetworkConfig config;
        config.layout = layout;
        config.ensure_coverage = ensure;
        config.sensor_count = shape.sensors;
        config.target_count = shape.targets;
        config.region_side = shape.side;
        config.sensing_radius = shape.sensing;
        config.comm_radius = shape.comm;
        config.cluster_spread = shape.side / 10.0;
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          SCOPED_TRACE(::testing::Message()
                       << "layout " << static_cast<int>(layout) << " ensure "
                       << ensure << " n " << shape.sensors << " seed " << seed);
          util::Rng grid_rng(seed), ref_rng(seed);
          const auto net = make_random_network(config, grid_rng);
          std::size_t relocated = 0;
          const auto expected = all_pairs_positions(config, ref_rng, &relocated);
          relocations += relocated;
          ASSERT_EQ(net.sensor_count(), expected.size());
          for (std::size_t s = 0; s < expected.size(); ++s) {
            ASSERT_EQ(net.sensors()[s].position, expected[s]) << "sensor " << s;
          }
          expect_matches_all_pairs(net);
          if (ensure) {
            EXPECT_TRUE(net.uncovered_targets().empty());
          }
        }
      }
    }
  }
  EXPECT_GT(relocations, 100u);  // the relocation path really ran
}

TEST(GridConstruction, HeterogeneousRadiiMatchAllPairs) {
  util::Rng rng(11);
  const auto region = geom::Rect::square(500.0);
  const auto sensor_at = geom::uniform_points(region, 400, rng);
  const auto target_at = geom::uniform_points(region, 90, rng);
  std::vector<Sensor> sensors;
  for (const auto& p : sensor_at)
    sensors.push_back({0, p, rng.uniform(0.0, 45.0), rng.uniform(0.0, 70.0)});
  sensors[7].sensing_radius = 0.0;  // zero radii and one far-reaching sensor
  sensors[8].comm_radius = 0.0;
  sensors[9].sensing_radius = 260.0;
  sensors[9].comm_radius = 390.0;
  std::vector<Target> targets;
  for (const auto& p : target_at) targets.push_back({0, p, 1.0});
  targets[3].position = sensors[5].position;  // a target on a sensor
  expect_matches_all_pairs(Network(sensors, targets, region));
}

TEST(GridConstruction, EdgeGeometriesMatchAllPairs) {
  const auto region = geom::Rect::square(100.0);
  // Points outside the region, on its corners, and coincident points.
  std::vector<Sensor> sensors{
      {0, {-40.0, -40.0}, 10.0, 30.0}, {0, {150.0, 50.0}, 10.0, 30.0},
      {0, {50.0, 50.0}, 10.0, 30.0},   {0, {50.0, 50.0}, 10.0, 30.0},
      {0, {50.0, 50.0}, 0.0, 0.0},     {0, {0.0, 0.0}, 10.0, 30.0},
      {0, {100.0, 100.0}, 10.0, 30.0}, {0, {160.0, 50.0}, 10.0, 30.0},
      {0, {60.0, 50.0}, 10.0, 10.0},   {0, {-40.0, -10.0}, 10.0, 30.0}};
  std::vector<Target> targets{{0, {50.0, 50.0}, 1.0},
                              {0, {-35.0, -40.0}, 1.0},
                              {0, {155.0, 50.0}, 1.0},
                              {0, {300.0, 300.0}, 1.0},
                              {0, {60.0, 50.0}, 1.0}};
  {
    SCOPED_TRACE("outside and coincident");
    expect_matches_all_pairs(Network(sensors, targets, region));
  }
  {
    SCOPED_TRACE("all points coincide");
    std::vector<Sensor> same(6, Sensor{0, {5.0, 5.0}, 1.0, 1.0});
    std::vector<Target> here(3, Target{0, {5.0, 5.0}, 1.0});
    const Network net(same, here, region);
    expect_matches_all_pairs(net);
    EXPECT_EQ(net.covering_sensors(0).size(), 6u);
  }
  {
    SCOPED_TRACE("radius larger than the region");
    for (auto& s : sensors) {
      s.sensing_radius = 1e4;
      s.comm_radius = 1e4;
    }
    const Network net(sensors, targets, region);
    expect_matches_all_pairs(net);
    EXPECT_EQ(net.neighbors(0).size(), sensors.size() - 1);
  }
  {
    SCOPED_TRACE("no sensors, no targets");
    expect_matches_all_pairs(Network({}, targets, region));
    expect_matches_all_pairs(Network(sensors, {}, region));
  }
  NetworkConfig config;
  config.sensor_count = 50;
  config.target_count = 20;
  config.region_side = 10.0;
  config.sensing_radius = 500.0;
  config.comm_radius = 500.0;
  util::Rng rng(3);
  const auto net = make_random_network(config, rng);
  expect_matches_all_pairs(net);
  EXPECT_EQ(net.covering_sensors(0).size(), 50u);
}

TEST(GridConstruction, TinyRadiusInHugeRegionKeepsTheGridLinear) {
  // Cells sized to the radius alone would be (1e7 / 1e-3)^2 = 1e20 cells;
  // the bbox_side / ceil(sqrt(n)) floor keeps them at O(n).
  NetworkConfig config;
  config.sensor_count = 400;
  config.target_count = 40;
  config.region_side = 1e7;
  config.sensing_radius = 1e-3;
  config.comm_radius = 1e-3;
  const bool count_bytes = obs::prof::alloc_hooks_compiled();
  util::Rng rng(9);
  if (count_bytes) {
    obs::prof::reset_alloc_stats();
    obs::prof::set_alloc_profiling(true);
  }
  const auto net = make_random_network(config, rng);
  if (count_bytes) {
    obs::prof::set_alloc_profiling(false);
    const auto bytes = obs::prof::alloc_totals().bytes;
    obs::prof::reset_alloc_stats();
    // Positions, sensors, targets, lists and three grids of ~n cells each:
    // a few hundred bytes per point, nowhere near a radius-sized grid.
    EXPECT_LT(bytes, 1024u * (config.sensor_count + config.target_count));
  }
  EXPECT_TRUE(net.uncovered_targets().empty());  // every target got a sensor
  expect_matches_all_pairs(net);
}

}  // namespace
}  // namespace cool::net
