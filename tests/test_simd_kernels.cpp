// Differential property tests for the detection utility's two kernels
// (DESIGN.md section 15): the cache-linear fast path (kAuto) must produce
// bit-for-bit the retained scalar reference's results over randomized
// instances, through marginal(), marginal_batch(), add() and value(). The
// determinism contract of the whole planner stack rests on this suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "submodular/detection.h"
#include "submodular/function.h"
#include "util/rng.h"

namespace cool::sub {
namespace {

// Restores the global kernel override when a test scope ends, so a failing
// assertion cannot leak a forced kernel into later suites.
class KernelGuard {
 public:
  KernelGuard() : saved_(marginal_kernel()) {}
  ~KernelGuard() { set_marginal_kernel(saved_); }

 private:
  MarginalKernel saved_;
};

const std::vector<MarginalKernel> kAllKernels{MarginalKernel::kScalar,
                                              MarginalKernel::kAuto};

// Drives one state through a deterministic schedule-like workload and
// records every observable double: batched gains over all elements, scalar
// gains, and value() after each add. Two kernels are interchangeable iff
// their traces are identical to the last bit.
std::vector<double> run_trace(const SubmodularFunction& fn,
                              MarginalKernel kernel, std::uint64_t seed) {
  set_marginal_kernel(kernel);
  const auto state = fn.make_state();
  const std::size_t n = fn.ground_size();
  std::vector<std::size_t> all(n);
  for (std::size_t e = 0; e < n; ++e) all[e] = e;
  std::vector<double> gains(n, 0.0);
  std::vector<double> trace;
  util::Rng rng(seed);
  std::vector<std::uint8_t> in_set(n, 0);
  for (std::size_t round = 0; round < n; ++round) {
    state->marginal_batch(all, gains);
    trace.insert(trace.end(), gains.begin(), gains.end());
    for (std::size_t e = 0; e < n; ++e) trace.push_back(state->marginal(e));
    // Add a random not-yet-added element (plus the occasional duplicate
    // add, which must be a no-op for every kernel).
    std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    while (in_set[pick]) pick = (pick + 1) % n;
    state->add(pick);
    in_set[pick] = 1;
    if (round % 3 == 0) state->add(pick);
    trace.push_back(state->value());
  }
  // reset() must take every kernel back to the identical empty trace.
  state->reset();
  state->marginal_batch(all, gains);
  trace.insert(trace.end(), gains.begin(), gains.end());
  trace.push_back(state->value());
  return trace;
}

void expect_kernels_interchangeable(const SubmodularFunction& fn,
                                    std::uint64_t seed) {
  KernelGuard guard;
  const auto reference = run_trace(fn, MarginalKernel::kScalar, seed);
  for (const MarginalKernel kernel : kAllKernels) {
    const auto trace = run_trace(fn, kernel, seed);
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(trace[i], reference[i])
          << "kernel " << static_cast<int>(kernel) << " trace index " << i;
  }
}

// Duplicate-free random lists: covers[g] draws up to `items` item ids.
std::vector<std::vector<std::size_t>> random_covers(std::size_t ground,
                                                    std::size_t items,
                                                    util::Rng& rng) {
  std::vector<std::vector<std::size_t>> covers(ground);
  for (auto& list : covers) {
    const auto fan = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(items)));
    std::vector<std::uint8_t> used(items, 0);
    for (std::size_t k = 0; k < fan; ++k) {
      const auto item = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(items) - 1));
      if (used[item]) continue;
      used[item] = 1;
      list.push_back(item);
    }
  }
  return covers;
}

TEST(MarginalKernel, MultiTargetDetectionDifferentialUniform) {
  // The paper's evaluation oracle (uniform p = 0.4) across random coverage
  // relations: the CSR fast path must match the vector-of-pairs reference
  // on every gain, including after every add.
  for (const std::uint64_t seed : {11ull, 77ull, 501ull}) {
    util::Rng rng(seed);
    const std::size_t sensors = 6 + seed % 20;
    const std::size_t targets = 3 + seed % 11;
    // covers[i] = sensors covering target i (duplicate-free).
    const auto covers = random_covers(targets, sensors, rng);
    const auto fn =
        MultiTargetDetectionUtility::uniform(sensors, covers, 0.4);
    expect_kernels_interchangeable(fn, seed);
  }
}

TEST(MarginalKernel, MultiTargetDetectionDifferentialWeightedRandomProbs) {
  // Heterogeneous probabilities and target weights: the weighted_miss
  // precompute must stay exactly (weight * miss), so gains remain
  // bit-identical to the reference's (weight * miss) * p evaluation.
  for (const std::uint64_t seed : {19ull, 333ull}) {
    util::Rng rng(seed);
    const std::size_t sensors = 15;
    std::vector<MultiTargetDetectionUtility::Target> targets(9);
    for (auto& target : targets) {
      target.weight = rng.uniform(0.25, 4.0);
      const auto covers = random_covers(1, sensors, rng)[0];
      for (const auto sensor : covers)
        target.detectors.emplace_back(sensor, rng.uniform(0.05, 0.95));
    }
    const MultiTargetDetectionUtility fn(sensors, std::move(targets));
    expect_kernels_interchangeable(fn, seed);
  }
}

}  // namespace
}  // namespace cool::sub
