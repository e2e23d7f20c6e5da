#include "sim/runtime.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/problem.h"
#include "obs/obs.h"

namespace cool::sim {

namespace {

constexpr double kFullSoc = 0.999;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool rows_equal(const core::PeriodicSchedule& a, const core::PeriodicSchedule& b,
                std::size_t sensor) {
  for (std::size_t t = 0; t < a.slots_per_period(); ++t)
    if (a.active(sensor, t) != b.active(sensor, t)) return false;
  return true;
}

void copy_row(core::PeriodicSchedule& dst, const core::PeriodicSchedule& src,
              std::size_t sensor) {
  for (std::size_t t = 0; t < src.slots_per_period(); ++t)
    dst.set_active(sensor, t, src.active(sensor, t));
}

// Trailing-window brownout accounting: per-slot (browned-out, assigned)
// counts in a ring, with running sums for an O(1) rate query.
class BrownoutWindow {
 public:
  explicit BrownoutWindow(std::size_t slots)
      : events_(slots, 0), assigned_(slots, 0) {}

  void begin_slot(std::size_t slot) {
    const std::size_t i = slot % events_.size();
    event_sum_ -= events_[i];
    assigned_sum_ -= assigned_[i];
    events_[i] = 0;
    assigned_[i] = 0;
    cursor_ = i;
  }
  void record_assigned() { ++assigned_[cursor_]; ++assigned_sum_; }
  void record_event() { ++events_[cursor_]; ++event_sum_; }
  // Browned-out fraction of assigned active node-slots in the window.
  double rate() const {
    return assigned_sum_ > 0
               ? static_cast<double>(event_sum_) / static_cast<double>(assigned_sum_)
               : 0.0;
  }

 private:
  std::vector<std::uint32_t> events_, assigned_;
  std::size_t event_sum_ = 0, assigned_sum_ = 0;
  std::size_t cursor_ = 0;
};

}  // namespace

void validate_energy_uncertainty_config(const EnergyUncertaintyConfig& config,
                                        std::size_t node_count,
                                        bool rho_greater_than_one) {
  if (!config.enabled) return;
  if (!rho_greater_than_one)
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: only the ρ > 1 (recharge-bound) regime is "
        "modeled");
  for (const double s : config.slot_stretch)
    if (s <= 0.0)
      throw std::invalid_argument(
          "EnergyUncertaintyConfig: slot_stretch entries must be > 0");
  if (!config.node_stretch.empty() && config.node_stretch.size() != node_count)
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: node_stretch must be empty or one entry "
        "per node");
  for (const double s : config.node_stretch)
    if (s <= 0.0)
      throw std::invalid_argument(
          "EnergyUncertaintyConfig: node_stretch entries must be > 0");
  if (config.charge_jitter_sigma < 0.0)
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: charge_jitter_sigma must be >= 0");
  energy::validate_estimator_config(config.estimator);
  if (!(config.brownout_budget > 0.0 && config.brownout_budget <= 1.0))
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: brownout_budget outside (0, 1]");
  if (config.readmit_rho_factor <= 0.0 ||
      config.bench_rho_factor <= config.readmit_rho_factor)
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: need 0 < readmit_rho_factor < "
        "bench_rho_factor (hysteresis band)");
  if (!(config.max_bench_fraction >= 0.0 && config.max_bench_fraction <= 1.0))
    throw std::invalid_argument(
        "EnergyUncertaintyConfig: max_bench_fraction outside [0, 1]");
}

ResilientRuntime::ResilientRuntime(
    std::shared_ptr<const sub::SubmodularFunction> utility,
    const net::Network& network, const net::RoutingTree& tree,
    const net::LinkModel& links, const net::RadioEnergyModel& radio,
    core::PeriodicSchedule schedule, const RuntimeConfig& config, util::Rng rng)
    : utility_(std::move(utility)), network_(&network), tree_(&tree),
      links_(&links), radio_(&radio), initial_(std::move(schedule)),
      config_(config), rng_(std::move(rng)) {
  if (!utility_) throw std::invalid_argument("ResilientRuntime: null utility");
  if (config_.slots == 0)
    throw std::invalid_argument("ResilientRuntime: empty horizon");
  const std::size_t n = utility_->ground_size();
  if (initial_.sensor_count() != n || network.sensor_count() != n)
    throw std::invalid_argument(
        "ResilientRuntime: utility/schedule/network size mismatch");
  if (initial_.slots_per_period() != config_.pattern.slots_per_period())
    throw std::invalid_argument(
        "ResilientRuntime: schedule period != charging period");
  validate_fault_config(config_.faults, n);
  validate_energy_uncertainty_config(config_.energy, n,
                                     config_.pattern.rho() > 1.0);
  if (config_.collect)
    net::validate_lossy_collection_config(config_.collection);
}

RuntimeReport ResilientRuntime::run() {
  COOL_SPAN("runtime.run", "sim");
  const std::size_t n = utility_->ground_size();
  const std::size_t T = initial_.slots_per_period();
  const bool rho_gt_one = config_.pattern.rho() > 1.0;
  const double norm_charge = 1.0 / static_cast<double>(T - 1);
  const double norm_drain = rho_gt_one ? 1.0 : 1.0 / static_cast<double>(T - 1);
  const double ready_level = rho_gt_one ? kFullSoc : norm_drain;
  // A browned-out node's radio stays dark until the battery recovers half a
  // slot's nominal charge (radio draw is tiny next to sensing).
  const double radio_floor = 0.5 * norm_charge;

  const EnergyUncertaintyConfig& eu = config_.energy;
  const double planned_rho_slots = static_cast<double>(T - 1);
  const std::size_t brownout_window =
      eu.brownout_window_slots > 0 ? eu.brownout_window_slots : 4 * T;
  const std::size_t replan_cooldown =
      eu.replan_cooldown_slots > 0 ? eu.replan_cooldown_slots : 2 * T;
  const std::size_t max_benched = static_cast<std::size_t>(
      eu.max_bench_fraction * static_cast<double>(n));

  RuntimeReport report;
  report.planned_rho_slots = planned_rho_slots;

  // Fault stream 2 matches Simulator, so a bench can run the static plan and
  // the closed loop against the *same* fault realization from one seed.
  FaultModel faults(n, config_.faults, rng_.fork(2));
  proto::HeartbeatDetector detector(*network_, *tree_, *links_, *radio_,
                                    config_.heartbeat);
  proto::DeltaDisseminator delta(*network_, *tree_, *links_, *radio_,
                                 config_.delta);
  util::Rng heartbeat_rng = rng_.fork(3);
  util::Rng delta_rng = rng_.fork(4);
  // Energy stream 5: the supply realization is shared across systems run
  // from one seed, so nominal/margin/adaptive arms face identical weather.
  util::Rng energy_rng = rng_.fork(5);
  // Collection stream 6: the data plane's contention/loss realization.
  util::Rng collection_rng = rng_.fork(6);
  std::optional<net::LossyCollection> collector;
  if (config_.collect)
    collector.emplace(*network_, *tree_, *links_, *radio_, config_.collection);

  // Gateway's plan, the rows it has promised to push, and what each node is
  // actually executing (the last assignment that reached it).
  core::PeriodicSchedule gateway = initial_;
  core::PeriodicSchedule promised = initial_;
  core::PeriodicSchedule executed = initial_;
  std::vector<std::uint8_t> believed_dead(n, 0);
  std::vector<std::size_t> enqueue_slot(n, 0);

  // Queue every survivor whose gateway row departed from the promised plan.
  const auto enqueue_changed_rows = [&](std::size_t slot) {
    for (std::size_t v = 0; v < n; ++v) {
      if (believed_dead[v] || rows_equal(gateway, promised, v)) continue;
      if (!delta.pending(v)) enqueue_slot[v] = slot;
      delta.enqueue(v, slot);
      copy_row(promised, gateway, v);
    }
  };

  // Fault-free reference: the initial schedule's per-period-slot utilities.
  std::vector<double> reference_slot_utility(T, 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    const auto state = utility_->make_state();
    for (const auto v : initial_.active_set(t)) state->add(v);
    reference_slot_utility[t] = state->value();
  }

  std::vector<double> level(n, 1.0);

  // Energy-uncertainty state. The estimator's units are slots (discharge is
  // one slot by construction, so ρ̂′ tracks recharge slots per active slot).
  std::optional<energy::RhoPrimeEstimator> estimator;
  if (eu.enabled)
    estimator.emplace(n, planned_rho_slots, eu.estimator);
  BrownoutWindow window(brownout_window);
  std::vector<std::size_t> recharging_since(n, kNone);
  std::vector<std::uint8_t> radio_dead(n, 0);
  std::vector<std::uint8_t> benched(n, 0);
  std::vector<std::uint8_t> attempted(n, 0);  // browned out this slot
  std::size_t benched_count = 0;
  std::size_t next_replan_slot = 0;
  // Probationary readmission is edge-triggered and debounced: it fires when
  // the fleet ρ̂′ has held below the re-admit bar for a full observation
  // window (a cloud actually passed — not one lucky sample, and not merely
  // "the fleet minus the benched looks fine"). Each re-bench doubles the
  // node's personal probation delay so a permanently shaded node cannot
  // thrash the plan.
  std::size_t recovered_streak = 0;
  std::vector<std::uint32_t> bench_count(n, 0);
  std::vector<std::size_t> probation_until(n, 0);
  // A probationer is placed *add-only*: the main repair treats it as
  // unavailable (no healthy node rebalances around capacity it may not
  // deliver), then it is dropped into its marginal-best slot on top of the
  // repaired plan — added coverage can only raise realized utility. It
  // graduates to full citizenship once it has earned fresh post-reset
  // recharge samples.
  std::vector<std::uint8_t> probation(n, 0);

  const auto effective_stretch = [&](std::size_t v, std::size_t slot) {
    double s = 1.0;
    if (!eu.slot_stretch.empty())
      s *= eu.slot_stretch[std::min(slot, eu.slot_stretch.size() - 1)];
    if (!eu.node_stretch.empty() && slot < eu.node_stretch_until_slot)
      s *= eu.node_stretch[v];
    if (eu.charge_jitter_sigma > 0.0) {
      const double jitter =
          std::max(0.0, 1.0 + eu.charge_jitter_sigma * energy_rng.normal());
      // Zero jitter means no light at all this slot; stretch to "infinite"
      // via a large factor rather than dividing by zero.
      s = jitter > 0.0 ? s / jitter : 1e9;
    }
    return s;
  };

  std::size_t believed_dead_count = 0;

  for (std::size_t slot = 0; slot < config_.slots; ++slot) {
    // Per-slot gateway telemetry, flushed to the timeline sink (and the
    // trace counter tracks) at the bottom of the loop.
    obs::SlotRecord tick;
    tick.slot = slot;

    // 1. Ground truth advances.
    faults.step(slot);
    const auto up = faults.up_mask();
    tick.live = static_cast<std::size_t>(
        std::accumulate(up.begin(), up.end(), std::size_t{0}));
    if (eu.enabled) window.begin_slot(slot);

    // Communication view: a post-brownout node is radio-dark — its silence
    // is what surfaces the energy fault to the failure detector.
    std::vector<std::uint8_t> comms_up = up;
    if (eu.enabled) {
      for (std::size_t v = 0; v < n; ++v) {
        if (!radio_dead[v]) continue;
        comms_up[v] = 0;
        if (up[v]) ++report.radio_blackout_slots;
      }
    }
    // A node the ARQ stack pushed into probation sleeps its radio too: its
    // heartbeats stop, so the detector reacts to *delivered* liveness — a
    // live node behind a broken channel looks exactly like a dead one.
    if (collector) {
      for (std::size_t v = 0; v < n; ++v) {
        if (!collector->radio_dark(v, slot)) continue;
        comms_up[v] = 0;
        if (up[v]) ++report.radio_blackout_slots;
      }
    }

    // 2. Heartbeats + the gateway's failure detector.
    proto::HeartbeatSlotReport hb;
    {
      COOL_SPAN("runtime.detect", "sim");
      hb = detector.step(slot, comms_up, heartbeat_rng);
    }
    report.heartbeat_transmissions += hb.transmissions;
    report.heartbeat_energy_j += hb.radio_energy_j;
    tick.suspected = hb.newly_suspected.size();
    tick.control_messages += hb.transmissions;
    tick.radio_energy_j += hb.radio_energy_j;
    for (const auto v : hb.newly_dead) {
      believed_dead[v] = 1;
      ++believed_dead_count;
      COOL_INSTANT("runtime.death_declared", "sim");
      if (faults.dead(v)) {
        ++report.detected_deaths;
        report.detection_latency_slots.add(
            static_cast<double>(slot - faults.death_slot(v)));
      } else {
        ++report.false_deaths;
      }
    }

    // 3. Confirmed deaths trigger incremental repair of the gateway plan.
    if (!hb.newly_dead.empty()) {
      COOL_SPAN("runtime.repair", "sim");
      const auto start = std::chrono::steady_clock::now();
      auto repaired =
          core::repair_schedule(gateway, *utility_, believed_dead, config_.repair);
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      ++tick.repairs;
      tick.repair_micros += static_cast<double>(micros);
      tick.repair_moves += repaired.moves;
      COOL_METRIC_OBSERVE("runtime.repair_micros", micros);
      report.repair_micros.add(static_cast<double>(micros));
      report.repair_oracle_calls.add(static_cast<double>(repaired.oracle_calls));
      report.repair_moves += repaired.moves;
      ++report.repairs;
      if (config_.oracle_gap) {
        const core::Problem oracle_problem(utility_, T, 1, rho_gt_one);
        const auto recompute =
            core::recompute_schedule(oracle_problem, believed_dead);
        if (recompute.utility > 0.0)
          report.repair_vs_recompute.add(repaired.utility_after /
                                         recompute.utility);
      }
      gateway = std::move(repaired.schedule);
      enqueue_changed_rows(slot);
    }

    // 3b. Adaptive energy replanning: on ρ′ drift or a brownout-budget
    // breach, re-derive per-node availabilities (bench/re-admit with a
    // hysteresis band) and patch the plan with the incremental repair.
    if (eu.enabled && eu.adaptive && slot >= next_replan_slot) {
      const double readmit_bar = eu.readmit_rho_factor * planned_rho_slots;
      const bool drift_trigger = estimator->drifted();
      const bool budget_trigger = window.rate() > eu.brownout_budget;
      // A benched node runs no charge cycles, so its personal ρ̂′ goes
      // stale; the fleet estimate keeps refreshing from the nodes still
      // cycling, and once it has *held* below the re-admit bar for a full
      // observation window (the cloud passed), a probationary return opens
      // for nodes whose personal backoff has expired.
      const bool fleet_recovered = estimator->fleet_rho() <= readmit_bar;
      recovered_streak = fleet_recovered ? recovered_streak + 1 : 0;
      // Level- not edge-triggered: a node whose personal backoff outlives
      // the moment the streak first fills must still get its probation once
      // the backoff expires. Thrash is bounded by the doubling backoff.
      const bool probation_open = recovered_streak >= brownout_window;
      const bool readmit_trigger = benched_count > 0 && probation_open;
      if (drift_trigger || budget_trigger || readmit_trigger) {
        // Probationers with enough fresh cycles graduate: from here on the
        // repair may rebalance around them like any healthy node.
        for (std::size_t v = 0; v < n; ++v) {
          if (probation[v] &&
              estimator->node_recharge_samples(v) >= eu.min_node_samples)
            probation[v] = 0;
        }
        // Re-admissions first (hysteresis: a lower bar than benching).
        bool changed = false;
        for (std::size_t v = 0; v < n; ++v) {
          if (!benched[v]) continue;
          const bool fresh_ok = estimator->node_rho(v) <= readmit_bar;
          const bool probation_ok =
              probation_open && slot >= probation_until[v];
          if (fresh_ok || probation_ok) {
            benched[v] = 0;
            --benched_count;
            ++report.readmit_events;
            // Probation: forget the stale estimate so the node is judged on
            // fresh cycles, not on the cloud that got it benched.
            if (!fresh_ok) {
              estimator->reset_node(v);
              probation[v] = 1;
            }
            changed = true;
          }
        }
        // Bench the worst offenders, bounded by the fleet-share cap — but
        // only while a trouble signal is live: a pure readmission pass must
        // not bench anyone on estimates the passing cloud left stale.
        if (drift_trigger || budget_trigger) {
          // The bar is relative to the fleet: benching pays only when a node
          // is anomalously worse than its peers (there is healthy capacity
          // to rebalance onto). Under a fleet-wide cloud every ρ̂′ rises
          // together, the bar rises with it, and nobody gets benched — the
          // guard's graceful degradation is the best available play.
          const double bench_bar =
              eu.bench_rho_factor *
              std::max(planned_rho_slots, estimator->fleet_rho());
          std::vector<std::pair<double, std::size_t>> offenders;
          for (std::size_t v = 0; v < n; ++v) {
            if (benched[v] || believed_dead[v] || !up[v]) continue;
            if (estimator->node_recharge_samples(v) < eu.min_node_samples)
              continue;
            const double rho_v = estimator->node_rho(v);
            if (rho_v >= bench_bar) offenders.emplace_back(rho_v, v);
          }
          std::sort(offenders.begin(), offenders.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
          for (const auto& [rho_v, v] : offenders) {
            if (benched_count >= max_benched) break;
            benched[v] = 1;
            probation[v] = 0;
            ++benched_count;
            ++report.bench_events;
            // Exponential probation backoff: the k-th bench of this node
            // blocks its probationary return for cooldown · 2^k slots.
            probation_until[v] =
                slot + (replan_cooldown
                        << std::min<std::uint32_t>(bench_count[v], 8));
            ++bench_count[v];
            changed = true;
          }
        }
        if (changed) {
          COOL_SPAN("runtime.replan", "sim");
          COOL_INSTANT("runtime.replan_triggered", "sim");
          std::vector<std::uint8_t> unavailable = believed_dead;
          for (std::size_t v = 0; v < n; ++v)
            if (benched[v] || probation[v]) unavailable[v] = 1;
          // Full local search: benched rows must drain into healthy slots
          // and re-admitted (currently unplaced) nodes need any slot as a
          // target, not just fault-affected ones.
          core::RepairConfig replan_config = config_.repair;
          replan_config.restrict_to_affected = false;
          const auto start = std::chrono::steady_clock::now();
          auto replanned = core::repair_schedule(gateway, *utility_,
                                                 unavailable, replan_config);
          const auto micros =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          report.repair_micros.add(static_cast<double>(micros));
          report.repair_oracle_calls.add(
              static_cast<double>(replanned.oracle_calls));
          report.repair_moves += replanned.moves;
          ++tick.replans;
          tick.repair_micros += static_cast<double>(micros);
          tick.repair_moves += replanned.moves;
          gateway = std::move(replanned.schedule);
          // Add-only placement: each probationer (row cleared by the masked
          // repair) lands in the slot where its marginal gain is largest. No
          // other node moves, so realized utility never drops below the
          // healthy-only plan even if the probationer declines every slot.
          for (std::size_t p = 0; p < n; ++p) {
            if (!probation[p] || benched[p] || believed_dead[p]) continue;
            double best_gain = -1.0;
            std::size_t best_t = 0;
            for (std::size_t t = 0; t < T; ++t) {
              const auto state = utility_->make_state();
              for (const auto v : gateway.active_set(t)) state->add(v);
              const double g = state->marginal(p);
              if (g > best_gain) {
                best_gain = g;
                best_t = t;
              }
            }
            gateway.set_active(p, best_t, true);
          }
          // Benched nodes are alive: they must receive their cleared rows,
          // so the delta goes to every non-dead changed node.
          enqueue_changed_rows(slot);
          ++report.replans;
          if (drift_trigger)
            ++report.replans_on_drift;
          else if (budget_trigger)
            ++report.replans_on_budget;
          next_replan_slot = slot + replan_cooldown;
        }
      }
    }

    // 4. Push queued updates (per-hop ARQ, exponential backoff on failure).
    proto::DeltaSlotReport push;
    {
      COOL_SPAN("runtime.redisseminate", "sim");
      push = delta.step(slot, comms_up, delta_rng);
    }
    tick.control_messages += push.data_transmissions + push.ack_transmissions;
    tick.radio_energy_j += push.radio_energy_j;
    for (const auto v : push.delivered) {
      copy_row(executed, gateway, v);
      report.redissemination_latency_slots.add(
          static_cast<double>(slot - enqueue_slot[v]));
    }

    // 5. Execute the slot: every up node follows its delivered assignment,
    // gated by the battery automaton — and, under supply uncertainty, by the
    // brownout guard.
    if (eu.enabled) std::fill(attempted.begin(), attempted.end(), 0);
    std::vector<std::size_t> active;
    for (std::size_t v = 0; v < n; ++v) {
      if (!up[v] || !executed.active_at(v, slot)) continue;
      if (eu.enabled) window.record_assigned();
      if (level[v] >= ready_level) {
        active.push_back(v);
      } else {
        ++report.energy_violations;
        if (eu.enabled) {
          window.record_event();
          if (eu.brownout_guard) {
            // Decline and keep recharging; the slot is simply lost.
            ++report.brownout_declines;
            ++tick.brownout_declines;
          } else {
            // Mid-slot brownout: the attempt drains the battery to zero,
            // yields nothing, and blacks the radio out.
            ++report.brownouts;
            ++tick.brownouts;
            COOL_INSTANT("runtime.brownout", "sim");
            attempted[v] = 1;
            level[v] = 0.0;
            radio_dead[v] = 1;
            recharging_since[v] = slot + 1;
          }
        }
      }
    }
    const auto state = utility_->make_state();
    for (const auto v : active) state->add(v);
    const double slot_utility = state->value();
    report.total_utility += slot_utility;
    report.activations += active.size();
    report.fault_free_utility += reference_slot_utility[slot % T];
    tick.utility = slot_utility;
    tick.active = active.size();

    std::vector<std::uint8_t> is_active(n, 0);
    for (const auto v : active) is_active[v] = 1;

    // 5b. The data plane: active nodes push their readings through the
    // contended lossy stack; only the coverage whose packets reached the
    // sink fresh counts as *delivered* utility.
    if (collector) {
      COOL_SPAN("runtime.collect", "sim");
      const auto col = collector->step(slot, is_active, comms_up, collection_rng);
      const auto delivered_state = utility_->make_state();
      for (std::size_t v = 0; v < n; ++v)
        if (col.delivered_mask[v]) delivered_state->add(v);
      const double delivered_utility = delivered_state->value();
      report.delivered_utility += delivered_utility;
      report.packets_originated += col.originated;
      report.packets_delivered += col.delivered;
      report.packets_late += col.delivered_late;
      report.packet_drops_overflow += col.drops_overflow;
      report.packet_drops_retry += col.drops_retry;
      report.packet_drops_radio_dark += col.drops_radio_dark;
      report.packets_non_lost += col.non_lost;
      report.collisions += col.collisions;
      report.collection_transmissions += col.transmissions;
      report.collection_retries += col.retries;
      report.probation_entries += col.probation_entries;
      report.max_queue_depth = std::max(report.max_queue_depth,
                                        col.max_queue_depth);
      report.collection_energy_j += col.radio_energy_j;
      tick.delivered_utility = delivered_utility;
      tick.packets_delivered = col.delivered;
      tick.packet_drops = col.drops_overflow + col.drops_retry +
                          col.drops_radio_dark + col.non_lost;
      tick.collisions = col.collisions;
      tick.queue_peak = col.max_queue_depth;
    }

    // 6. Advance batteries; completed active slots feed wearout and the
    // discharge estimator, completed recharges feed the recharge estimator.
    for (std::size_t v = 0; v < n; ++v) {
      if (is_active[v]) {
        faults.record_activation(v);
        level[v] = std::max(0.0, level[v] - norm_drain);
        if (eu.enabled) {
          estimator->record_discharge(v, 1.0);
          recharging_since[v] = slot + 1;
        }
      } else if (!eu.enabled) {
        level[v] = std::min(1.0, level[v] + (rho_gt_one ? norm_charge : 1.0));
      } else if (!attempted[v]) {
        const double gain = norm_charge / effective_stretch(v, slot);
        level[v] = std::min(1.0, level[v] + gain);
        if (radio_dead[v] && level[v] >= radio_floor) radio_dead[v] = 0;
        if (recharging_since[v] != kNone && level[v] >= ready_level) {
          estimator->record_recharge(
              v, static_cast<double>(slot - recharging_since[v] + 1));
          recharging_since[v] = kNone;
        }
      }
    }

    // End of slot: finalize the telemetry record and counter tracks.
    tick.believed_dead = believed_dead_count;
    tick.benched = benched_count;
    tick.delta_pending = delta.pending_count();
    COOL_TRACE_COUNTER("runtime.slot_utility", tick.utility);
    COOL_TRACE_COUNTER("runtime.live_nodes",
                       static_cast<double>(tick.live));
    if (config_.timeline != nullptr) config_.timeline->record(tick);
  }

  report.slots = config_.slots;
  report.true_deaths = faults.stats().deaths;
  report.failures_injected = faults.stats().failures_injected;
  report.false_suspicions = detector.stats().false_suspicions;
  report.delta_updates_enqueued = delta.stats().updates_enqueued;
  report.delta_updates_delivered = delta.stats().updates_delivered;
  report.delta_transmissions =
      delta.stats().data_transmissions + delta.stats().ack_transmissions;
  report.delta_energy_j = delta.stats().radio_energy_j;
  report.average_utility_per_slot =
      report.total_utility / static_cast<double>(config_.slots);
  report.coverage_retained = report.fault_free_utility > 0.0
                                 ? report.total_utility / report.fault_free_utility
                                 : 1.0;
  if (eu.enabled) {
    report.benched_final = benched_count;
    report.estimated_fleet_rho_slots = estimator->fleet_rho();
  }
  if (collector) {
    report.average_delivered_per_slot =
        report.delivered_utility / static_cast<double>(config_.slots);
    report.delivered_fraction =
        report.total_utility > 0.0
            ? report.delivered_utility / report.total_utility
            : 1.0;
    report.collection_node_energy_j = collector->node_energy_j();
  }
  return report;
}

}  // namespace cool::sim
