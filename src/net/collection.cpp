#include "net/collection.h"

#include <stdexcept>

namespace cool::net {

DataCollection::DataCollection(const Network& network, const RoutingTree& tree,
                               const RadioEnergyModel& radio, double idle_listen_s)
    : network_(&network), tree_(&tree), radio_(&radio),
      idle_listen_s_(idle_listen_s) {
  if (idle_listen_s < 0.0)
    throw std::invalid_argument("DataCollection: negative listen time");
}

CollectionSlotReport DataCollection::slot_report(
    const std::vector<std::uint8_t>& active) const {
  const std::size_t n = network_->sensor_count();
  if (active.size() != n)
    throw std::invalid_argument("DataCollection: active size mismatch");

  CollectionSlotReport report;
  report.node_energy_j.assign(n, 0.0);
  const auto relays = tree_->relay_load(active);
  for (std::size_t v = 0; v < n; ++v) {
    const bool is_active = active[v] != 0;
    const bool reachable = tree_->reachable(v);
    std::size_t tx = 0;
    if (is_active) {
      if (reachable) {
        ++report.originated;
        // The sink's own reading is delivered without a transmission.
        if (v != tree_->sink()) tx = 1;
        ++report.delivered;
      } else {
        ++report.stranded;
      }
    }
    report.relayed_total += relays[v];
    // Strictly-greater keeps the lowest-index forwarder on ties; the kNoNode
    // init keeps a relay-free slot from pinning the bottleneck on node 0.
    if (relays[v] > report.max_relay_load) {
      report.max_relay_load = relays[v];
      report.bottleneck_node = v;
    }
    // Relays and the sink listen; idle nodes sleep their radio.
    const bool radio_on = is_active || relays[v] > 0 || v == tree_->sink();
    const double listen = radio_on ? idle_listen_s_ : 0.0;
    report.node_energy_j[v] = radio_->slot_energy_j(tx, relays[v], listen);
    report.radio_energy_j += report.node_energy_j[v];
  }
  return report;
}

CollectionScheduleReport DataCollection::schedule_report(
    const std::vector<std::vector<std::uint8_t>>& period_masks,
    std::size_t periods) const {
  if (period_masks.empty())
    throw std::invalid_argument("DataCollection: empty period");
  if (periods == 0)
    throw std::invalid_argument("DataCollection: zero periods");

  CollectionScheduleReport report;
  report.node_energy_j.assign(network_->sensor_count(), 0.0);
  for (const auto& mask : period_masks) {
    const auto slot = slot_report(mask);
    report.delivered += slot.delivered * periods;
    report.stranded += slot.stranded * periods;
    report.radio_energy_j += slot.radio_energy_j * static_cast<double>(periods);
    for (std::size_t v = 0; v < slot.node_energy_j.size(); ++v)
      report.node_energy_j[v] +=
          slot.node_energy_j[v] * static_cast<double>(periods);
  }
  report.slots = period_masks.size() * periods;
  // Same tie rule and kNoNode init as bottleneck_node in slot_report().
  for (std::size_t v = 0; v < report.node_energy_j.size(); ++v) {
    if (report.node_energy_j[v] > report.hottest_node_energy_j) {
      report.hottest_node_energy_j = report.node_energy_j[v];
      report.hottest_node = v;
    }
  }
  return report;
}

}  // namespace cool::net
