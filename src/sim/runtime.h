// Closed-loop fault-tolerant runtime: detect -> repair -> re-disseminate.
//
// The paper computes one schedule at the gateway and assumes every sensor
// survives the horizon. ResilientRuntime drops that assumption: each slot it
//   1. advances a FaultModel (crash-stop, wearout, transient, trace),
//   2. collects heartbeats over the lossy tree and runs the gateway's
//      timeout/backoff failure detector (proto/heartbeat),
//   3. on newly confirmed deaths, incrementally repairs the schedule
//      (core/repair) instead of recomputing from scratch, and
//   4. unicasts only the *changed* assignments to the affected survivors
//      with per-hop ARQ and exponential retry backoff
//      (proto::DeltaDisseminator).
// Nodes execute the last assignment that actually reached them — a node the
// gateway wrongly declared dead keeps soldiering on under its stale plan,
// and a node whose update is still in flight does too, exactly like a real
// deployment. Energy follows the normalized battery automaton (Section
// II-B), so a freshly moved sensor may miss its first new slot while it
// recharges; that shows up as an energy violation, not a crash.
//
// The run() report quantifies the whole loop: coverage retained vs the
// fault-free plan, detection and repair latency, control-plane message and
// radio-energy overhead, and (optionally) the repaired-vs-full-recompute
// utility gap at each repair.
//
// On top of node faults, EnergyUncertaintyConfig models the *supply* failure
// axis: realized recharge rates stray from the planned pattern, nodes guard
// against (or suffer) brownouts, the gateway estimates the realized ρ′
// online, and an adaptive replanning loop re-routes coverage around nodes
// whose supply cannot hold their slot — with hysteresis so a passing cloud
// does not thrash the plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/repair.h"
#include "core/schedule.h"
#include "energy/estimator.h"
#include "energy/pattern.h"
#include "net/link.h"
#include "net/lossy_collection.h"
#include "net/network.h"
#include "net/radio.h"
#include "net/routing.h"
#include "obs/timeline.h"
#include "proto/dissemination.h"
#include "proto/heartbeat.h"
#include "sim/faults.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cool::sim {

// Energy-supply uncertainty: the realized recharge rate departs from the
// planned pattern (clouds, shading, panel ageing), and the runtime closes
// the loop — guard against brownouts, estimate the realized ρ′ online, and
// adaptively re-plan around nodes whose supply cannot sustain their slot.
// Only meaningful in the ρ > 1 (recharge-bound) regime; enabling it for a
// ρ <= 1 pattern is rejected at construction.
struct EnergyUncertaintyConfig {
  bool enabled = false;

  // Supply realization. A passive slot nominally delivers 1/(T−1) of a full
  // charge; under stretch s it delivers 1/s of that (s > 1 = clouds, s < 1 =
  // brighter than planned). Effective stretch at (node v, global slot t) is
  // slot_stretch[min(t, size−1)] · node_stretch[v] · jitter, with empty
  // vectors meaning 1 everywhere and jitter a per-(node, slot) truncated
  // normal factor max(0, 1 + σ·N(0,1)).
  std::vector<double> slot_stretch;
  std::vector<double> node_stretch;  // empty or one entry per node
  // node_stretch applies only to slots before this index (a cloud parked
  // over part of the field that burns off); default: the whole horizon.
  std::size_t node_stretch_until_slot = static_cast<std::size_t>(-1);
  double charge_jitter_sigma = 0.0;

  // Brownout guard (node side): a node assigned an active slot whose battery
  // is not ready *declines* the slot and keeps recharging. Without the guard
  // it attempts the slot anyway and browns out mid-slot: the battery hits
  // zero, the slot yields no utility, and the radio stays dark until the
  // battery recovers one slot's nominal charge — so the node misses
  // heartbeats and surfaces to the gateway's failure detector exactly like a
  // crash (an energy-fault feeding the detect→repair path).
  bool brownout_guard = true;

  // Online ρ̂′ estimation (gateway side; units are slots, planned ρ = T−1
  // recharge slots per discharge slot). In a deployment the realized
  // durations ride on heartbeats; the simulation feeds them directly.
  energy::RhoEstimatorConfig estimator;

  // Adaptive replanning: when the estimator flags drift, or the fleet
  // brownout rate over the trailing window breaches the budget, the gateway
  // re-derives per-node availabilities — benching nodes whose personal ρ̂′
  // says they cannot recharge within their T−1 passive slots — and patches
  // the schedule with the incremental repair (full local search, so benched
  // coverage moves to healthy nodes and re-admitted nodes get re-placed).
  bool adaptive = false;
  // Trailing window (slots) for the brownout rate; 0 means 4·T.
  std::size_t brownout_window_slots = 0;
  // Replan when browned-out ÷ assigned-active in the window exceeds this.
  double brownout_budget = 0.15;
  // Hysteresis: bench at ρ̂′_v >= bench_rho_factor·max(T−1, fleet ρ̂′) —
  // relative to the fleet, because benching only pays for nodes doing
  // *anomalously* worse than everyone else; a fleet-wide cloud leaves
  // nothing to rebalance onto. Re-admit at ρ̂′_v <= readmit_rho_factor·(T−1)
  // (must be < bench_rho_factor), and wait replan_cooldown_slots (0 means
  // 2·T) between replans.
  double bench_rho_factor = 1.5;
  double readmit_rho_factor = 1.15;
  std::size_t replan_cooldown_slots = 0;
  // Never bench more than this share of the fleet, worst ρ̂′ first — a
  // fleet-wide cloud must not bench everyone.
  double max_bench_fraction = 0.34;
  // Per-node recharge samples required before that node may be benched.
  std::size_t min_node_samples = 3;
};

// Throws std::invalid_argument on inconsistent knobs (bad stretch values,
// node_stretch size mismatch, inverted hysteresis band, out-of-range
// fractions, or enabling uncertainty for a ρ <= 1 pattern).
void validate_energy_uncertainty_config(const EnergyUncertaintyConfig& config,
                                        std::size_t node_count,
                                        bool rho_greater_than_one);

struct RuntimeConfig {
  std::size_t slots = 0;               // horizon to run (> 0)
  energy::ChargingPattern pattern;     // normalized energy model (ρ, T)
  FaultModelConfig faults;
  proto::HeartbeatConfig heartbeat;
  core::RepairConfig repair;
  proto::DeltaDisseminationConfig delta;
  EnergyUncertaintyConfig energy;
  // Run the lossy collection data plane each slot: active nodes push their
  // readings to the sink over the contended ARQ stack, the report carries
  // delivered (not just geometric) utility, and a node that talks itself
  // into probation goes radio-dark — so detect→repair runs off delivered
  // liveness instead of assumed liveness.
  bool collect = false;
  net::LossyCollectionConfig collection;
  // Score every repair against the full lazy-greedy recompute oracle and
  // record the utility ratio (costly: one full schedule per repair).
  bool oracle_gap = false;
  // Optional per-slot gateway telemetry (JSONL); must outlive run(). See
  // obs/timeline.h for the record schema.
  obs::TimelineSink* timeline = nullptr;
};

struct RuntimeReport {
  // Coverage.
  double total_utility = 0.0;
  double average_utility_per_slot = 0.0;
  // What the initial schedule would earn with zero faults over the horizon.
  double fault_free_utility = 0.0;
  // total_utility / fault_free_utility (1 when the horizon was fault-free).
  double coverage_retained = 1.0;
  std::size_t slots = 0;
  std::size_t activations = 0;
  std::size_t energy_violations = 0;
  // Ground truth vs the detector's view.
  std::size_t true_deaths = 0;
  std::size_t failures_injected = 0;
  std::size_t detected_deaths = 0;  // declared dead and actually dead
  std::size_t false_deaths = 0;     // declared dead while still alive
  std::size_t false_suspicions = 0;
  util::Accumulator detection_latency_slots;  // declaration − true death slot
  // Repair.
  std::size_t repairs = 0;
  std::size_t repair_moves = 0;
  util::Accumulator repair_micros;           // wall-clock per repair call
  util::Accumulator repair_oracle_calls;     // marginal queries per repair
  // repaired / full-recompute per-period utility, one sample per repair;
  // only populated when RuntimeConfig::oracle_gap.
  util::Accumulator repair_vs_recompute;
  // Control-plane overhead.
  std::size_t heartbeat_transmissions = 0;
  double heartbeat_energy_j = 0.0;
  std::size_t delta_updates_enqueued = 0;
  std::size_t delta_updates_delivered = 0;
  std::size_t delta_transmissions = 0;       // data + acks
  double delta_energy_j = 0.0;
  util::Accumulator redissemination_latency_slots;  // enqueue -> delivery
  // Energy robustness (populated when EnergyUncertaintyConfig::enabled).
  std::size_t brownouts = 0;           // unguarded mid-slot brownouts
  std::size_t brownout_declines = 0;   // guard declined an unready slot
  std::size_t radio_blackout_slots = 0;  // node-slots radio-dark post-brownout
  std::size_t replans = 0;             // adaptive replans executed
  std::size_t replans_on_drift = 0;    // triggered by the ρ′ drift flag
  std::size_t replans_on_budget = 0;   // triggered by the brownout budget
  std::size_t bench_events = 0;        // node benchings (cumulative)
  std::size_t readmit_events = 0;      // node re-admissions (cumulative)
  std::size_t benched_final = 0;       // nodes still benched at horizon end
  double estimated_fleet_rho_slots = 0.0;  // final fleet ρ̂′ (slots)
  double planned_rho_slots = 0.0;          // T − 1
  // Delivered coverage (populated when RuntimeConfig::collect).
  double delivered_utility = 0.0;          // Σ per-slot delivered utility
  double average_delivered_per_slot = 0.0;
  // delivered / geometric utility: the share of scheduled coverage whose
  // readings actually reached the sink fresh (1 when collect is off).
  double delivered_fraction = 1.0;
  std::size_t packets_originated = 0;
  std::size_t packets_delivered = 0;       // fresh, in-slot
  std::size_t packets_late = 0;            // landed after their slot (stale)
  std::size_t packet_drops_overflow = 0;
  std::size_t packet_drops_retry = 0;
  std::size_t packet_drops_radio_dark = 0;
  std::size_t packets_non_lost = 0;        // NON fire-and-forget losses
  std::size_t collisions = 0;
  std::size_t collection_transmissions = 0;
  std::size_t collection_retries = 0;
  std::size_t probation_entries = 0;       // nodes sent radio-dark by ARQ
  std::size_t max_queue_depth = 0;
  double collection_energy_j = 0.0;
  // Per-node data-plane radio energy — retries, collisions and duplicates
  // are billed to the node that burned them.
  std::vector<double> collection_node_energy_j;
};

class ResilientRuntime {
 public:
  // `utility` is the per-slot submodular objective; `schedule` the initial
  // (fault-free) plan, assumed fully disseminated before slot 0. All
  // referenced network objects must outlive the runtime.
  ResilientRuntime(std::shared_ptr<const sub::SubmodularFunction> utility,
                   const net::Network& network, const net::RoutingTree& tree,
                   const net::LinkModel& links,
                   const net::RadioEnergyModel& radio,
                   core::PeriodicSchedule schedule, const RuntimeConfig& config,
                   util::Rng rng);

  RuntimeReport run();

 private:
  std::shared_ptr<const sub::SubmodularFunction> utility_;
  const net::Network* network_;
  const net::RoutingTree* tree_;
  const net::LinkModel* links_;
  const net::RadioEnergyModel* radio_;
  core::PeriodicSchedule initial_;
  RuntimeConfig config_;
  util::Rng rng_;
};

}  // namespace cool::sim
