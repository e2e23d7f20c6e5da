// Lazy (CELF-style) greedy hill-climbing.
//
// Produces exactly GreedyScheduler's schedule — same placements, same
// order, same gains, ties included — while issuing far fewer marginal-gain
// queries: submodularity means a (sensor, slot) pair's gain can only shrink
// as the slot's active set grows, so stale queue entries are safe upper
// bounds and only the queue head ever needs re-evaluation. The heap breaks
// gain ties on the lowest (sensor, slot), the plain scan's first maximum;
// tests/test_lazy_greedy.cpp checks the equality bit for bit. This is the
// ablation for DESIGN.md's "oracle-efficiency" design note; the paper
// itself ships the plain O(n²T) scan. GreedyScheduler gets that scan's
// answer from cached gains, refreshing only dependents (DESIGN.md §16),
// which is faster than this queue at every size measured (see
// EXPERIMENTS.md).
#pragma once

#include "core/greedy.h"

namespace cool::core {

class LazyGreedyScheduler {
 public:
  // Throws core::Cancelled if ctx.cancel fires; ctx.scratch_states reuses
  // caller-owned per-slot oracle states (see PlannerContext).
  GreedyResult schedule(const Problem& problem,
                        const PlannerContext& ctx = {}) const;
};

}  // namespace cool::core
