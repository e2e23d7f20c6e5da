// EvalState reuse across planner calls (PlannerContext::scratch_states):
// recycled, reset() states must drive every scheduler to exactly the result
// a fresh allocation produces — the svc session cache leans on this to
// serve many requests from one set of oracle states.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "energy/pattern.h"
#include "net/network.h"
#include "util/arena.h"
#include "util/rng.h"

namespace cool {
namespace {

core::Problem make_instance(std::uint64_t seed, std::size_t sensors = 16,
                            std::size_t targets = 24) {
  net::NetworkConfig config;
  config.sensor_count = sensors;
  config.target_count = targets;
  util::Rng rng(seed);
  const auto network = net::make_random_network(config, rng);
  return core::Problem::detection_instance(network, 0.4,
                                           energy::ChargingPattern{}, 6);
}

bool same_result(const core::GreedyResult& a, const core::GreedyResult& b) {
  if (!(a.schedule == b.schedule)) return false;
  if (a.oracle_calls != b.oracle_calls) return false;
  if (a.steps.size() != b.steps.size()) return false;
  for (std::size_t i = 0; i < a.steps.size(); ++i)
    if (a.steps[i].gain != b.steps[i].gain) return false;
  return true;
}

template <typename Scheduler>
void expect_reuse_matches_fresh(const char* label) {
  const core::Problem problem = make_instance(7);
  const Scheduler scheduler;
  const core::GreedyResult fresh = scheduler.schedule(problem);

  std::vector<std::unique_ptr<sub::EvalState>> scratch;
  core::PlannerContext ctx;
  ctx.scratch_states = &scratch;
  // First call populates the scratch vector; the next ones reset() it.
  for (int round = 0; round < 3; ++round) {
    const core::GreedyResult reused = scheduler.schedule(problem, ctx);
    EXPECT_TRUE(same_result(fresh, reused))
        << label << " diverged on recycled state, round " << round;
  }
  EXPECT_EQ(scratch.size(), problem.slots_per_period())
      << label << " left a wrong-sized scratch vector";
}

// Arena-backed scratch (PlannerContext::arena) against the call-local
// default, across repeated calls on a warmed arena: every rung must emit
// bit-identical schedules, step gains, and oracle counts, and the warmed
// arena must stop growing after the first call.
template <typename Scheduler>
void expect_arena_matches_heap(const char* label) {
  const core::Problem problem = make_instance(7);
  const Scheduler scheduler;
  const core::GreedyResult heap_backed = scheduler.schedule(problem);

  std::vector<std::unique_ptr<sub::EvalState>> scratch;
  util::Arena arena;
  core::PlannerContext ctx;
  ctx.scratch_states = &scratch;
  ctx.arena = &arena;
  std::size_t warm_blocks = 0, warm_reserved = 0;
  for (int round = 0; round < 4; ++round) {
    const core::GreedyResult arena_backed = scheduler.schedule(problem, ctx);
    EXPECT_TRUE(same_result(heap_backed, arena_backed))
        << label << " diverged on arena scratch, round " << round;
    if (round == 0) {
      warm_blocks = arena.block_count();
      warm_reserved = arena.bytes_reserved();
    } else {
      EXPECT_EQ(arena.block_count(), warm_blocks)
          << label << " grew the arena after warm-up, round " << round;
      EXPECT_EQ(arena.bytes_reserved(), warm_reserved)
          << label << " reserved more arena bytes after warm-up";
    }
  }
}

TEST(StateReuse, GreedyMatchesFreshStates) {
  expect_reuse_matches_fresh<core::GreedyScheduler>("greedy");
}

TEST(StateReuse, LazyGreedyMatchesFreshStates) {
  expect_reuse_matches_fresh<core::LazyGreedyScheduler>("lazy_greedy");
}

TEST(StateReuse, HefMatchesFreshStates) {
  expect_reuse_matches_fresh<core::HefScheduler>("hef");
}

TEST(StateReuse, GreedyArenaMatchesHeap) {
  expect_arena_matches_heap<core::GreedyScheduler>("greedy");
}

TEST(StateReuse, LazyGreedyArenaMatchesHeap) {
  expect_arena_matches_heap<core::LazyGreedyScheduler>("lazy_greedy");
}

TEST(StateReuse, HefArenaMatchesHeap) {
  expect_arena_matches_heap<core::HefScheduler>("hef");
}

TEST(StateReuse, ArenaSurvivesAcrossSchedulerKinds) {
  // One session arena serves every scheduler kind (the svc ladder's
  // greedy -> HEF hop among them); each reset()s and re-carves it, so
  // hopping must not perturb any scheduler's output.
  const core::Problem problem = make_instance(21);
  std::vector<std::unique_ptr<sub::EvalState>> scratch;
  util::Arena arena;
  core::PlannerContext ctx;
  ctx.scratch_states = &scratch;
  ctx.arena = &arena;

  const core::GreedyResult lazy =
      core::LazyGreedyScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(core::LazyGreedyScheduler{}.schedule(problem), lazy));
  const core::GreedyResult greedy = core::GreedyScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(core::GreedyScheduler{}.schedule(problem), greedy));
  const core::GreedyResult floor = core::HefScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(core::HefScheduler{}.schedule(problem), floor));
  const core::GreedyResult lazy_again =
      core::LazyGreedyScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(lazy, lazy_again));
}

TEST(StateReuse, ScratchSurvivesAcrossSchedulerKinds) {
  // A request can run an exact planner, then fall to HEF, all against the
  // same scratch vector: every hop must still match its fresh-state twin.
  const core::Problem problem = make_instance(21);
  std::vector<std::unique_ptr<sub::EvalState>> scratch;
  core::PlannerContext ctx;
  ctx.scratch_states = &scratch;

  const core::GreedyResult lazy = core::LazyGreedyScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(core::LazyGreedyScheduler{}.schedule(problem), lazy));
  const core::GreedyResult floor = core::HefScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(core::HefScheduler{}.schedule(problem), floor));
  const core::GreedyResult lazy_again =
      core::LazyGreedyScheduler{}.schedule(problem, ctx);
  EXPECT_TRUE(same_result(lazy, lazy_again));
}

TEST(StateReuse, SpecChangeRebuildsScratchInPlace) {
  // A wrong-sized scratch vector (previous problem had a different T or
  // utility) must be rebuilt, not trusted: results still match fresh.
  const core::Problem small = make_instance(3, 10, 12);
  const core::Problem big = make_instance(4, 20, 30);

  std::vector<std::unique_ptr<sub::EvalState>> scratch;
  core::PlannerContext ctx;
  ctx.scratch_states = &scratch;

  const core::GreedyResult first = core::GreedyScheduler{}.schedule(small, ctx);
  EXPECT_TRUE(same_result(core::GreedyScheduler{}.schedule(small), first));

  // Same slot count but a different network/utility: prepare_slot_states
  // cannot tell by size alone, so the svc layer rebuilds sessions on spec
  // change. Emulate that contract here: clear before switching utilities.
  scratch.clear();
  const core::GreedyResult second = core::GreedyScheduler{}.schedule(big, ctx);
  EXPECT_TRUE(same_result(core::GreedyScheduler{}.schedule(big), second));
}

}  // namespace
}  // namespace cool
