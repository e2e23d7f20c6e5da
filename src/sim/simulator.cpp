#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace cool::sim {

namespace {

constexpr double kFullSoc = 0.999;

// Utility of a slot with full-strength and fractional contributors.
// Fractional node v (SoC f) contributes f times its marginal gain on top of
// the set added so far (linear interpolation of the partial slot).
double slot_utility(const sub::SubmodularFunction& utility,
                    const std::vector<std::size_t>& full,
                    const std::vector<std::pair<std::size_t, double>>& partial) {
  const auto state = utility.make_state();
  for (const auto v : full) state->add(v);
  double total = state->value();
  for (const auto& [v, fraction] : partial) {
    total += fraction * state->marginal(v);
    state->add(v);
  }
  return total;
}

}  // namespace

Simulator::Simulator(std::shared_ptr<const sub::SubmodularFunction> utility,
                     const SimConfig& config, util::Rng rng)
    : utility_(std::move(utility)), config_(config), rng_(std::move(rng)) {
  if (!utility_) throw std::invalid_argument("Simulator: null utility");
  if (config_.slots_per_day == 0 || config_.days == 0)
    throw std::invalid_argument("Simulator: empty horizon");
  if (config_.slot_minutes <= 0.0)
    throw std::invalid_argument("Simulator: slot_minutes <= 0");
  validate_fault_config(config_.faults, utility_->ground_size());
}

SimReport Simulator::run(ActivationPolicy& policy) {
  const std::size_t n = utility_->ground_size();
  SimReport report;

  // --- Energy state ---
  // Normalized backend: level in [0, 1].
  const std::size_t T = config_.pattern.slots_per_period();
  const bool rho_gt_one = config_.pattern.rho() > 1.0;
  const double norm_charge = 1.0 / static_cast<double>(T - 1);
  const double norm_drain = rho_gt_one ? 1.0 : 1.0 / static_cast<double>(T - 1);
  std::vector<double> level(n, 1.0);

  // Harvest backend: one physical stack per node, rebuilt each day with the
  // day's weather.
  energy::DayWeatherProcess weather(rng_.fork(1), config_.initial_weather);
  const energy::SolarModel solar(config_.solar);
  std::vector<energy::HarvestSimulator> harvest;

  // Fault state: stream 2 keeps transient runs bit-identical with the seed.
  FaultModel faults(n, config_.faults, rng_.fork(2));

  for (std::size_t day = 0; day < config_.days; ++day) {
    if (config_.backend == EnergyBackend::kHarvest) {
      // Fresh cloud fields per day; batteries persist across days.
      std::vector<double> carry(n, 1.0);
      for (std::size_t v = 0; v < harvest.size(); ++v)
        carry[v] = harvest[v].battery().soc();
      harvest.clear();
      harvest.reserve(n);
      for (std::size_t v = 0; v < n; ++v) {
        harvest.emplace_back(solar, weather.today(), config_.cell, config_.node,
                             rng_.fork(1000 + day * n + v));
        harvest.back().battery().set_level(carry[v] *
                                           config_.node.battery_capacity_j);
      }
    }

    double day_total = 0.0;
    for (std::size_t slot = 0; slot < config_.slots_per_day; ++slot) {
      const std::size_t global_slot = day * config_.slots_per_day + slot;
      const double minute = config_.day_start_minute +
                            static_cast<double>(slot) * config_.slot_minutes;

      // Inject faults and tick repairs.
      faults.step(global_slot);

      FleetState fleet;
      fleet.global_slot = global_slot;
      fleet.soc.resize(n);
      fleet.ready.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        const double soc = config_.backend == EnergyBackend::kNormalized
                               ? level[v]
                               : harvest[v].battery().soc();
        fleet.soc[v] = soc;
        // A failed node is never ready; its SoC reads zero to the policy.
        const bool healthy = !faults.down(v);
        if (!healthy) fleet.soc[v] = 0.0;
        fleet.ready[v] =
            healthy && soc >= (rho_gt_one ? kFullSoc : norm_drain) ? 1 : 0;
      }

      if (config_.record_soc) report.soc_trace.push_back(fleet.soc);

      const auto selected = policy.select(fleet);

      // Enforce energy rules; split into full-strength and partial actives.
      std::vector<std::size_t> full_active;
      std::vector<std::pair<std::size_t, double>> partial_active;
      std::vector<std::uint8_t> is_active(n, 0);
      for (const auto v : selected) {
        if (v >= n) throw std::out_of_range("Simulator: policy selected bad node");
        if (faults.down(v)) {
          ++report.failed_selections;
          continue;
        }
        if (fleet.ready[v]) {
          full_active.push_back(v);
          is_active[v] = 1;
        } else if (config_.allow_partial_activation &&
                   fleet.soc[v] >= config_.min_useful_soc) {
          partial_active.emplace_back(v, fleet.soc[v]);
          is_active[v] = 1;
          ++report.partial_activations;
        } else {
          ++report.energy_violations;
        }
      }

      const double value = slot_utility(*utility_, full_active, partial_active);
      report.total_utility += value;
      day_total += value;
      report.slot_utility.add(value);
      report.active_set_size.add(
          static_cast<double>(full_active.size() + partial_active.size()));
      report.activations += full_active.size() + partial_active.size();
      ++report.slots_simulated;

      // Advance energy; completed active slots feed the wearout fault model.
      for (std::size_t v = 0; v < n; ++v) {
        if (is_active[v]) faults.record_activation(v);
        if (config_.backend == EnergyBackend::kNormalized) {
          if (is_active[v]) {
            level[v] = std::max(0.0, level[v] - norm_drain);
          } else {
            level[v] = std::min(1.0, level[v] + (rho_gt_one ? norm_charge : 1.0));
          }
        } else {
          harvest[v].step(minute, config_.slot_minutes, is_active[v] != 0);
        }
      }
    }
    report.daily_average.push_back(day_total /
                                   static_cast<double>(config_.slots_per_day));
    if (config_.backend == EnergyBackend::kHarvest) weather.advance();
  }

  report.failures_injected = faults.stats().failures_injected;
  report.node_deaths = faults.stats().deaths;
  report.average_utility_per_slot =
      report.total_utility / static_cast<double>(report.slots_simulated);
  return report;
}

}  // namespace cool::sim
