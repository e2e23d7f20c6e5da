#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geometry/deployment.h"
#include "obs/obs.h"

namespace cool::net {

namespace {

bool finite(geom::Vec2 p) { return std::isfinite(p.x) && std::isfinite(p.y); }

// Uniform cell grid over a static point set (DESIGN.md §17). A query at p
// visits p's cell and the 8 around it. The cell side is at least the query
// radius, so that block holds every stored point within the radius: callers
// filter the candidates with their exact distance predicate and get the
// all-pairs answer. The side is raised to at least bbox_side /
// ceil(sqrt(n)), which keeps the grid at O(n) cells however small the
// radius; an empty, degenerate or non-finite box (or an infinite radius)
// gets one cell. Points are stored cell by cell (a counting sort, ids
// ascending within a cell), so a row of three cells is one contiguous run.
class CellGrid {
 public:
  // `points` are stored under their index; `queries` only widen the box so
  // that every later query lands inside it.
  CellGrid(const std::vector<geom::Vec2>& points,
           const std::vector<geom::Vec2>& queries, double radius) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    lo_ = {kInf, kInf};
    geom::Vec2 hi{-kInf, -kInf};
    bool all_finite = true;
    for (const auto* set : {&points, &queries}) {
      for (const auto& p : *set) {
        all_finite = all_finite && finite(p);
        lo_ = {std::min(lo_.x, p.x), std::min(lo_.y, p.y)};
        hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
      }
    }
    const double box = std::max(hi.x - lo_.x, hi.y - lo_.y);
    const double per_side =
        std::max(1.0, std::ceil(std::sqrt(static_cast<double>(points.size()))));
    // The 1e-9 margin absorbs rounding in the cell arithmetic, so two points
    // within `radius` never land two cells apart.
    const double side = std::max(radius, box / per_side) * (1.0 + 1e-9);
    if (all_finite && box > 0.0 && std::isfinite(side)) {
      inv_side_ = 1.0 / side;
      nx_ = static_cast<std::size_t>((hi.x - lo_.x) * inv_side_) + 1;
      ny_ = static_cast<std::size_t>((hi.y - lo_.y) * inv_side_) + 1;
    }
    std::vector<std::size_t> cell(points.size());
    start_.assign(nx_ * ny_ + 1, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      cell[i] = axis(points[i].y, lo_.y, ny_) * nx_ + axis(points[i].x, lo_.x, nx_);
      ++start_[cell[i] + 1];
    }
    for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
    std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
    ids_.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) ids_[fill[cell[i]]++] = i;
  }

  // True as soon as `pred` holds for a stored point near p.
  template <typename Pred>
  bool any_near(geom::Vec2 p, Pred&& pred) const {
    const std::size_t cx = axis(p.x, lo_.x, nx_), cy = axis(p.y, lo_.y, ny_);
    const std::size_t x0 = cx == 0 ? 0 : cx - 1, x1 = std::min(cx + 1, nx_ - 1);
    for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= std::min(cy + 1, ny_ - 1); ++y) {
      const std::size_t row = y * nx_;
      for (std::size_t k = start_[row + x0]; k < start_[row + x1 + 1]; ++k)
        if (pred(ids_[k])) return true;
    }
    return false;
  }

  template <typename Visit>
  void for_each_near(geom::Vec2 p, Visit&& visit) const {
    any_near(p, [&](std::size_t i) {
      visit(i);
      return false;
    });
  }

 private:
  std::size_t axis(double v, double lo, std::size_t cells) const {
    if (cells == 1) return 0;
    const double c = (v - lo) * inv_side_;
    if (c <= 0.0) return 0;
    return c >= static_cast<double>(cells - 1) ? cells - 1
                                                : static_cast<std::size_t>(c);
  }

  geom::Vec2 lo_;
  double inv_side_ = 0.0;
  std::size_t nx_ = 1, ny_ = 1;
  std::vector<std::size_t> start_;  // cell c holds ids_[start_[c], start_[c + 1])
  std::vector<std::size_t> ids_;
};

}  // namespace

Network::Network(std::vector<Sensor> sensors, std::vector<Target> targets,
                 geom::Rect region)
    : sensors_(std::move(sensors)), targets_(std::move(targets)),
      region_(region) {
  std::vector<geom::Vec2> sensor_at, target_at;
  sensor_at.reserve(sensors_.size());
  target_at.reserve(targets_.size());
  double max_sensing = 0.0;
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    if (!finite(sensors_[i].position))
      throw std::invalid_argument("Network: non-finite sensor position");
    if (!(sensors_[i].sensing_radius >= 0.0) || !(sensors_[i].comm_radius >= 0.0))
      throw std::invalid_argument("Network: negative or NaN radius");
    sensors_[i].id = i;
    sensor_at.push_back(sensors_[i].position);
    max_sensing = std::max(max_sensing, sensors_[i].sensing_radius);
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!finite(targets_[i].position))
      throw std::invalid_argument("Network: non-finite target position");
    targets_[i].id = i;
    target_at.push_back(targets_[i].position);
  }

  // Filled sensor by sensor in ascending id, so every list comes out
  // ascending without a sort.
  covers_.resize(targets_.size());
  const CellGrid near_targets(target_at, sensor_at, max_sensing);
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    const double r = sensors_[s].sensing_radius;
    near_targets.for_each_near(sensor_at[s], [&](std::size_t t) {
      if (sensors_[s].position.distance2_to(targets_[t].position) <= r * r)
        covers_[t].push_back(s);
    });
  }
}

const std::vector<std::size_t>& Network::covering_sensors(std::size_t target) const {
  if (target >= covers_.size()) throw std::out_of_range("Network::covering_sensors");
  return covers_[target];
}

bool Network::covers(std::size_t sensor, std::size_t target) const {
  const auto& list = covering_sensors(target);
  return std::binary_search(list.begin(), list.end(), sensor);
}

std::vector<std::size_t> Network::uncovered_targets() const {
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < covers_.size(); ++t)
    if (covers_[t].empty()) out.push_back(t);
  return out;
}

const std::vector<std::size_t>& Network::neighbors(std::size_t sensor) const {
  if (sensor >= sensors_.size()) throw std::out_of_range("Network::neighbors");
  std::call_once(comm_->built, [this] {
    std::vector<geom::Vec2> sensor_at;
    sensor_at.reserve(sensors_.size());
    double max_comm = 0.0;
    for (const auto& s : sensors_) {
      sensor_at.push_back(s.position);
      max_comm = std::max(max_comm, s.comm_radius);
    }
    // Filled by an outer loop over ascending a, so every list comes out
    // ascending. Each edge is tested from both ends; the predicate is
    // symmetric bit for bit (a - b is exactly -(b - a)), so both ends agree.
    auto& lists = comm_->neighbors;
    lists.resize(sensors_.size());
    const CellGrid near_sensors(sensor_at, {}, max_comm);
    for (std::size_t a = 0; a < sensors_.size(); ++a) {
      near_sensors.for_each_near(sensor_at[a], [&](std::size_t b) {
        const double reach = std::min(sensors_[a].comm_radius, sensors_[b].comm_radius);
        if (b != a &&
            sensors_[a].position.distance2_to(sensors_[b].position) <= reach * reach)
          lists[b].push_back(a);
      });
    }
  });
  return comm_->neighbors[sensor];
}

std::vector<geom::Disk> Network::sensing_disks() const {
  std::vector<geom::Disk> disks;
  disks.reserve(sensors_.size());
  for (const auto& s : sensors_) disks.emplace_back(s.position, s.sensing_radius);
  return disks;
}

Network make_random_network(const NetworkConfig& config, util::Rng& rng) {
  COOL_SPAN("net.network_build", "net");
  if (config.sensor_count == 0)
    throw std::invalid_argument("make_random_network: no sensors");
  if (!(config.sensing_radius >= 0.0) || !(config.comm_radius >= 0.0))
    throw std::invalid_argument("make_random_network: negative or NaN radius");
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

  if (config.ensure_coverage) {
    // Pull the nearest not-yet-relocated sensor onto any uncovered target.
    // Relocated sensors are pinned so a later target cannot steal a sensor
    // that was just moved to cover an earlier one. A pinned sensor sits
    // exactly on the target it was moved to, so the sensors covering a
    // target are the unpinned ones near it in a grid of drawn positions
    // plus those on occupied targets near it in a grid of targets.
    const double r2 = config.sensing_radius * config.sensing_radius;
    const CellGrid drawn(positions, target_positions, config.sensing_radius);
    const CellGrid on_target(target_positions, {}, config.sensing_radius);
    std::vector<std::uint8_t> pinned(positions.size(), 0);
    std::vector<std::uint8_t> occupied(target_positions.size(), 0);
    // A relocation can strip a target that was covered natively, so sweep
    // until quiescent (bounded by the sensor count: each pass pins one).
    bool moved = true;
    while (moved) {
      moved = false;
      for (std::size_t t = 0; t < target_positions.size(); ++t) {
        const auto& tp = target_positions[t];
        const bool covered =
            drawn.any_near(tp, [&](std::size_t s) {
              return !pinned[s] && positions[s].distance2_to(tp) <= r2;
            }) ||
            on_target.any_near(tp, [&](std::size_t k) {
              return occupied[k] && target_positions[k].distance2_to(tp) <= r2;
            });
        if (covered) continue;
        // Truly uncovered targets are rare (one per relocation), so the
        // nearest-unpinned search stays a linear scan.
        double best = std::numeric_limits<double>::infinity();
        std::size_t nearest = positions.size();
        for (std::size_t s = 0; s < positions.size(); ++s) {
          const double d2 = positions[s].distance2_to(tp);
          if (!pinned[s] && d2 < best) {
            best = d2;
            nearest = s;
          }
        }
        if (nearest < positions.size()) {
          positions[nearest] = tp;
          pinned[nearest] = 1;
          occupied[t] = 1;
          moved = true;
        }
      }
    }
  }

  std::vector<Sensor> sensors;
  sensors.reserve(config.sensor_count);
  for (std::size_t i = 0; i < config.sensor_count; ++i)
    sensors.push_back(Sensor{i, positions[i], config.sensing_radius,
                             config.comm_radius});

  std::vector<Target> targets;
  targets.reserve(config.target_count);
  for (std::size_t i = 0; i < config.target_count; ++i)
    targets.push_back(Target{i, target_positions[i], 1.0});

  return Network(std::move(sensors), std::move(targets), region);
}

}  // namespace cool::net
