#include "submodular/detection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cool::sub {
namespace {

TEST(DetectionUtility, EmptySetIsZero) {
  const DetectionUtility fn({0.4, 0.4, 0.4});
  EXPECT_DOUBLE_EQ(fn.value({}), 0.0);
}

TEST(DetectionUtility, SingletonEqualsProbability) {
  const DetectionUtility fn({0.4, 0.7});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0}), 0.4);
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{1}), 0.7);
}

TEST(DetectionUtility, PairMatchesClosedForm) {
  const DetectionUtility fn({0.4, 0.4});
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 1}), 1.0 - 0.36, 1e-12);
}

TEST(DetectionUtility, DuplicatesIgnored) {
  const DetectionUtility fn({0.4, 0.4});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0, 0, 0}), 0.4);
}

TEST(DetectionUtility, MarginalMatchesMissProduct) {
  const DetectionUtility fn({0.4, 0.4, 0.4});
  const auto state = fn.make_state();
  EXPECT_DOUBLE_EQ(state->marginal(0), 0.4);
  state->add(0);
  EXPECT_NEAR(state->marginal(1), 0.6 * 0.4, 1e-12);
  state->add(1);
  EXPECT_NEAR(state->marginal(2), 0.36 * 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(state->marginal(0), 0.0);  // already in the set
}

TEST(DetectionUtility, MaxValue) {
  const DetectionUtility fn({0.5, 0.5});
  EXPECT_DOUBLE_EQ(fn.max_value(), 0.75);
}

TEST(DetectionUtility, CloneIsIndependent) {
  const DetectionUtility fn({0.4, 0.4});
  const auto a = fn.make_state();
  a->add(0);
  const auto b = a->clone();
  b->add(1);
  EXPECT_DOUBLE_EQ(a->value(), 0.4);
  EXPECT_NEAR(b->value(), 0.64, 1e-12);
}

TEST(DetectionUtility, Validation) {
  EXPECT_THROW(DetectionUtility({1.5}), std::invalid_argument);
  EXPECT_THROW(DetectionUtility({-0.1}), std::invalid_argument);
  const DetectionUtility fn({0.4});
  const auto state = fn.make_state();
  EXPECT_THROW(state->marginal(1), std::out_of_range);
  EXPECT_THROW(state->add(1), std::out_of_range);
  EXPECT_THROW(fn.value(std::vector<std::size_t>{5}), std::out_of_range);
}

TEST(MultiTargetDetection, SumsPerTargetUtilities) {
  // Two targets: t0 covered by {0,1}, t1 covered by {1,2}. p = 0.4.
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0, 1}, {1, 2}}, 0.4);
  EXPECT_EQ(fn.target_count(), 2u);
  // S = {1} covers both: 0.4 + 0.4.
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{1}), 0.8, 1e-12);
  // S = {0, 2}: each target gets one sensor.
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 2}), 0.8, 1e-12);
  // Full set: each target has two sensors: 2·(1 − 0.36).
  EXPECT_NEAR(fn.value(std::vector<std::size_t>{0, 1, 2}), 1.28, 1e-12);
  EXPECT_NEAR(fn.max_value(), 1.28, 1e-12);
}

TEST(MultiTargetDetection, MarginalOnlyCountsCoveredTargets) {
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0, 1}, {1, 2}}, 0.4);
  const auto state = fn.make_state();
  EXPECT_NEAR(state->marginal(1), 0.8, 1e-12);   // covers both targets
  EXPECT_NEAR(state->marginal(0), 0.4, 1e-12);   // covers one
  state->add(0);
  EXPECT_NEAR(state->marginal(1), 0.6 * 0.4 + 0.4, 1e-12);
}

TEST(MultiTargetDetection, WeightsScaleTargets) {
  MultiTargetDetectionUtility::Target t0{{{0, 0.5}}, 3.0};
  const MultiTargetDetectionUtility fn(1, {t0});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0}), 1.5);
}

TEST(MultiTargetDetection, SensorNotCoveringAnythingHasZeroGain) {
  const auto fn = MultiTargetDetectionUtility::uniform(3, {{0}}, 0.4);
  const auto state = fn.make_state();
  EXPECT_DOUBLE_EQ(state->marginal(2), 0.0);
}

TEST(MultiTargetDetection, Validation) {
  MultiTargetDetectionUtility::Target bad_sensor{{{5, 0.4}}, 1.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_sensor}), std::out_of_range);
  MultiTargetDetectionUtility::Target bad_p{{{0, 1.4}}, 1.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_p}), std::invalid_argument);
  MultiTargetDetectionUtility::Target bad_w{{{0, 0.4}}, 0.0};
  EXPECT_THROW(MultiTargetDetectionUtility(3, {bad_w}), std::invalid_argument);
}

TEST(MultiTargetDetection, EmptyTargetListIsZeroFunction) {
  const MultiTargetDetectionUtility fn(4, {});
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0, 1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(fn.max_value(), 0.0);
}

// Counted detection states (DESIGN.md section 16): with one p for every
// pair, the fast state keeps per-target counts and supports exact removal.
// Every observable after any add/remove history must equal, bit for bit,
// a state rebuilt from scratch on the same set by adds alone: the fast
// state, and the scalar reference that multiplies the products out.

std::uint64_t bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

// Uniform p, random weights, fan-in 0-6 drawn with replacement: a target
// may list one sensor twice, so that sensor's row repeats the target and
// a removal must take back its whole multiplicity.
MultiTargetDetectionUtility uniform_with_repeats(std::size_t sensors,
                                                 std::size_t targets, double p,
                                                 util::Rng& rng) {
  std::vector<MultiTargetDetectionUtility::Target> spec(targets);
  for (auto& target : spec) {
    target.weight = rng.uniform(0.5, 3.0);
    const auto fan = static_cast<std::size_t>(rng.uniform_int(0, 6));
    for (std::size_t k = 0; k < fan; ++k)
      target.detectors.emplace_back(
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(sensors) - 1)),
          p);
  }
  return MultiTargetDetectionUtility(sensors, std::move(spec));
}

std::unique_ptr<EvalState> rebuilt(const MultiTargetDetectionUtility& fn,
                                   MarginalKernel kernel,
                                   const std::vector<std::uint8_t>& members,
                                   std::size_t without) {
  const MarginalKernel saved = marginal_kernel();
  set_marginal_kernel(kernel);
  auto state = fn.make_state();
  set_marginal_kernel(saved);
  for (std::size_t v = 0; v < members.size(); ++v)
    if (members[v] && v != without) state->add(v);
  return state;
}

// `state` holds exactly `members`. Checks marginal, marginal_batch, value
// and every member's marginal against the set without it.
void expect_matches_rebuilds(const MultiTargetDetectionUtility& fn,
                             EvalState& state,
                             const std::vector<std::uint8_t>& members,
                             const std::string& at) {
  const std::size_t n = members.size();
  std::vector<std::size_t> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = v;
  std::vector<double> batch(n), want_batch(n);
  state.marginal_batch(all, batch);
  for (const auto kernel : {MarginalKernel::kAuto, MarginalKernel::kScalar}) {
    const std::string where =
        at + (kernel == MarginalKernel::kAuto ? " fast" : " scalar");
    const auto want = rebuilt(fn, kernel, members, n);
    EXPECT_EQ(bits(state.value()), bits(want->value())) << where;
    want->marginal_batch(all, want_batch);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(bits(state.marginal(v)), bits(want->marginal(v)))
          << where << " v " << v;
      EXPECT_EQ(bits(batch[v]), bits(want_batch[v])) << where << " v " << v;
    }
    for (std::size_t e = 0; e < n; ++e) {
      if (!members[e]) continue;
      const auto rest = rebuilt(fn, kernel, members, e);
      state.remove(e);
      EXPECT_EQ(bits(state.marginal(e)), bits(rest->marginal(e)))
          << where << " without " << e;
      EXPECT_EQ(bits(state.value()), bits(rest->value()))
          << where << " without " << e;
      state.add(e);
    }
  }
}

TEST(CountedState, RandomAddRemoveSequencesMatchRebuiltStates) {
  std::size_t removals = 0;
  for (const double p : {0.4, 0.15, 0.0, 1.0}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng(seed * 7 + static_cast<std::uint64_t>(p * 100));
      const std::size_t n = 24;
      const auto fn = uniform_with_repeats(n, 30, p, rng);
      const auto state = rebuilt(fn, MarginalKernel::kAuto,
                                 std::vector<std::uint8_t>(n, 0), n);
      ASSERT_TRUE(state->can_remove());
      std::vector<std::uint8_t> members(n, 0);
      for (int step = 0; step < 40; ++step) {
        const auto v = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (members[v] && rng.uniform() < 0.6) {
          state->remove(v);
          members[v] = 0;
          ++removals;
        } else {
          state->add(v);  // re-adds a removed sensor, or a member (no-op)
          members[v] = 1;
        }
        // Removing a non-member changes nothing.
        const auto outsider = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (!members[outsider]) state->remove(outsider);
        expect_matches_rebuilds(fn, *state, members,
                                "p=" + std::to_string(p) + " seed=" +
                                    std::to_string(seed) + " step=" +
                                    std::to_string(step));
      }
      // A clone carries the counts.
      const auto copy = state->clone();
      EXPECT_TRUE(copy->can_remove());
      expect_matches_rebuilds(fn, *copy, members, "clone");
    }
  }
  EXPECT_GT(removals, 200u);
}

TEST(CountedState, RemovalTakesBackARepeatedTarget) {
  // Sensor 0 is listed twice on target 0, so its row repeats target 0 and
  // add(0) counts two detections there; remove(0) must take both back.
  MultiTargetDetectionUtility::Target shared{{{0, 0.4}, {0, 0.4}, {1, 0.4}},
                                             2.0};
  MultiTargetDetectionUtility::Target own{{{1, 0.4}}, 1.5};
  const MultiTargetDetectionUtility fn(3, {shared, own});
  const auto fresh = fn.make_state();
  const auto state = fn.make_state();
  ASSERT_TRUE(state->can_remove());
  state->add(0);
  state->add(1);
  state->remove(0);
  state->remove(1);  // every target back to zero detectors
  for (std::size_t v = 0; v < 3; ++v)
    EXPECT_EQ(bits(state->marginal(v)), bits(fresh->marginal(v))) << v;
  EXPECT_EQ(bits(state->value()), bits(0.0));
  state->add(1);
  fresh->add(1);
  EXPECT_EQ(bits(state->marginal(0)), bits(fresh->marginal(0)));
  EXPECT_EQ(bits(state->value()), bits(fresh->value()));
}

TEST(CountedState, FusedScanMatchesPerSlotArgmaxAfterRemovals) {
  util::Rng rng(11);
  const std::size_t n = 40;
  const auto fn = uniform_with_repeats(n, 60, 0.4, rng);
  std::vector<std::unique_ptr<EvalState>> states;
  std::vector<std::uint8_t> placed(n, 0);
  for (std::size_t t = 0; t < 3; ++t) {
    states.push_back(fn.make_state());
    for (std::size_t v = t; v < n; v += 5) {
      states[t]->add(v);
      placed[v] = 1;
    }
    for (std::size_t v = t; v < n; v += 10) {
      states[t]->remove(v);
      placed[v] = 0;
    }
  }
  const FusedSlotEvaluator fused = resolve_fused(states);
  ASSERT_TRUE(fused);
  std::vector<std::size_t> ids;
  for (std::size_t v = 0; v < n; ++v)
    if (!placed[v]) ids.push_back(v);
  std::vector<const EvalState*> raw;
  for (const auto& state : states) raw.push_back(state.get());
  double best_gain[3];
  std::size_t best_index[3];
  fused.fn(raw.data(), raw.size(), ids.data(), ids.size(), best_gain,
           best_index);
  for (std::size_t t = 0; t < 3; ++t) {
    std::size_t want = 0;
    for (std::size_t k = 1; k < ids.size(); ++k)
      if (states[t]->marginal(ids[k]) > states[t]->marginal(ids[want]))
        want = k;
    EXPECT_EQ(best_index[t], want) << t;
    EXPECT_EQ(bits(best_gain[t]), bits(states[t]->marginal(ids[want]))) << t;
  }
}

TEST(CountedState, OnlyUniformFastStatesClaimRemoval) {
  MultiTargetDetectionUtility::Target mixed{{{0, 0.4}, {1, 0.5}}, 1.0};
  const MultiTargetDetectionUtility per_pair(2, {mixed});
  const auto uncounted = per_pair.make_state();
  EXPECT_FALSE(uncounted->can_remove());
  uncounted->add(0);
  EXPECT_THROW(uncounted->remove(0), std::logic_error);

  const auto uniform = MultiTargetDetectionUtility::uniform(2, {{0, 1}}, 0.4);
  const MarginalKernel saved = marginal_kernel();
  set_marginal_kernel(MarginalKernel::kScalar);
  const auto scalar = uniform.make_state();
  set_marginal_kernel(saved);
  EXPECT_FALSE(scalar->can_remove());
  EXPECT_THROW(scalar->remove(0), std::logic_error);
  EXPECT_TRUE(uniform.make_state()->can_remove());

  const DetectionUtility single({0.4, 0.4});
  EXPECT_FALSE(single.make_state()->can_remove());
}

}  // namespace
}  // namespace cool::sub
