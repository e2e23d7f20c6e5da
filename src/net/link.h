// Lossy-link model for the radio substrate.
//
// Per-transmission delivery succeeds with a probability derived from link
// distance: near-perfect inside half the communication range, degrading
// smoothly to a floor at the edge — the standard empirical shape of CC2420
// packet reception curves, reduced to a two-parameter model.
//
// Lives in net (next to the radio energy model and the routing tree) so the
// collection data plane can sample links without a layering cycle.
#pragma once

#include <cstddef>

#include "net/network.h"
#include "util/rng.h"

namespace cool::net {

struct LinkModelConfig {
  double near_delivery = 0.98;  // PRR well inside range
  double edge_delivery = 0.50;  // PRR at exactly the communication range
  // Extra multiplicative loss applied to every link (interference knob).
  double global_loss = 0.0;     // in [0, 1); 0 = none
};

class LinkModel {
 public:
  LinkModel(const Network& network, const LinkModelConfig& config = {});

  // Delivery probability of one transmission a -> b; 0 when not neighbours.
  double delivery_probability(std::size_t from, std::size_t to) const;

  // Samples one transmission attempt.
  bool try_deliver(std::size_t from, std::size_t to, util::Rng& rng) const;

  const LinkModelConfig& config() const noexcept { return config_; }

 private:
  const Network* network_;
  LinkModelConfig config_;
};

}  // namespace cool::net
