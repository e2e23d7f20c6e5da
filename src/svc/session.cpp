#include "svc/session.h"

#include <utility>

#include "energy/pattern.h"
#include "net/network.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace cool::svc {

core::Problem make_problem(const NetworkSpec& spec) {
  net::NetworkConfig config;
  config.sensor_count = spec.sensors;
  config.target_count = spec.targets;
  config.region_side = spec.region_side;
  config.sensing_radius = spec.sensing_radius;
  config.comm_radius = spec.comm_radius;
  util::Rng rng(spec.seed);
  const net::Network network = net::make_random_network(config, rng);
  // T slots per period with rho = T - 1 > 1: the parser enforces T >= 3, so
  // every service instance is in the paper's rho > 1 regime (one active
  // slot per period) that the whole greedy ladder requires.
  energy::ChargingPattern pattern;
  pattern.discharge_minutes = 15.0;
  pattern.recharge_minutes =
      15.0 * static_cast<double>(spec.slots_per_period - 1);
  return core::Problem::detection_instance(network, spec.detect_p, pattern,
                                           spec.periods);
}

namespace {

// The whole of a Session's construction, under the span coold's trace and
// profile verb name it by.
core::Problem build_session_problem(const NetworkSpec& spec) {
  COOL_SPAN("svc.session.build", "svc");
  return make_problem(spec);
}

}  // namespace

Session::Session(NetworkSpec spec)
    : spec_(std::move(spec)), problem_(build_session_problem(spec_)) {}

void Session::set_schedule(core::PeriodicSchedule schedule) {
  schedule_ = std::move(schedule);
  ++applied_;
}

SessionCache::SessionCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Session* SessionCache::find(const std::string& network) {
  const auto it = entries_.find(network);
  return it == entries_.end() ? nullptr : it->second.session.get();
}

Session* SessionCache::touch(const std::string& network) {
  const auto it = entries_.find(network);
  if (it == entries_.end()) return nullptr;
  it->second.recency = ++clock_;
  ++hits_;
  return it->second.session.get();
}

Session& SessionCache::emplace(const std::string& network,
                               const NetworkSpec& spec,
                               std::vector<std::unique_ptr<Session>>& graveyard) {
  auto it = entries_.find(network);
  if (it != entries_.end() && it->second.session->spec() == spec) {
    it->second.recency = ++clock_;
    ++hits_;
    return *it->second.session;
  }
  ++rebuilds_;
  if (it != entries_.end()) {
    // Spec changed: the old oracle states are bound to the old utility and
    // must not survive. Park the old session until the batch completes.
    graveyard.push_back(std::move(it->second.session));
    entries_.erase(it);
  }
  Entry entry;
  entry.session = std::make_unique<Session>(spec);
  entry.recency = ++clock_;
  Session& session = *entry.session;
  entries_.emplace(network, std::move(entry));
  evict_past_capacity(graveyard);
  COOL_METRIC_ADD("svc.sessions.created", 1);
  return session;
}

void SessionCache::evict_past_capacity(
    std::vector<std::unique_ptr<Session>>& graveyard) {
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it)
      if (it->second.recency < victim->second.recency) victim = it;
    if (evict_observer_) evict_observer_(victim->first);
    graveyard.push_back(std::move(victim->second.session));
    entries_.erase(victim);
    ++evictions_;
    COOL_METRIC_ADD("svc.sessions.evicted", 1);
  }
}

std::vector<SessionCache::Exported> SessionCache::export_entries() {
  std::vector<Exported> exported;
  exported.reserve(entries_.size());
  for (auto& [network, entry] : entries_)
    exported.push_back({network, entry.recency, entry.session.get()});
  return exported;
}

void SessionCache::restore(const std::string& network, NetworkSpec spec,
                           std::optional<core::PeriodicSchedule> schedule,
                           std::size_t applied, std::uint64_t recency) {
  Entry entry;
  entry.session = std::make_unique<Session>(std::move(spec));
  if (schedule) {
    entry.session->set_schedule(*std::move(schedule));
  }
  entry.session->set_applied(applied);
  entry.recency = recency;
  entries_.insert_or_assign(network, std::move(entry));
}

}  // namespace cool::svc
