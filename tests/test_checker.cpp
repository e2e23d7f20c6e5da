#include "submodular/checker.h"

#include <gtest/gtest.h>

#include <memory>

#include "submodular/area.h"
#include "submodular/concave.h"
#include "submodular/detection.h"

namespace cool::sub {
namespace {

// g(x) = x: the concave-of-modular form of a plain modular sum.
ConcaveOfModular modular(std::vector<double> weights) {
  return ConcaveOfModular(std::move(weights), [](double x) { return x; });
}

// A deliberately NON-submodular function (supermodular pair bonus): the
// checker must catch it.
class SupermodularPair final : public SubmodularFunction {
 public:
  std::size_t ground_size() const override { return 2; }
  std::unique_ptr<EvalState> make_state() const override {
    class State final : public EvalState {
     public:
      double marginal(std::size_t e) const override {
        if (in_[e]) return 0.0;
        return in_[1 - e] ? 10.0 : 1.0;  // bonus when joining its partner
      }
      void add(std::size_t e) override {
        if (in_[e]) return;
        value_ += marginal(e);
        in_[e] = true;
      }
      void reset() override {
        in_[0] = in_[1] = false;
        value_ = 0.0;
      }
      double value() const override { return value_; }
      std::unique_ptr<EvalState> clone() const override {
        return std::make_unique<State>(*this);
      }

     private:
      bool in_[2] = {false, false};
      double value_ = 0.0;
    };
    return std::make_unique<State>();
  }
};

// A non-monotone function: adding element 1 strictly hurts.
class Decreasing final : public SubmodularFunction {
 public:
  std::size_t ground_size() const override { return 2; }
  std::unique_ptr<EvalState> make_state() const override {
    class State final : public EvalState {
     public:
      double marginal(std::size_t e) const override {
        if (in_[e]) return 0.0;
        return e == 0 ? 1.0 : -0.5;
      }
      void add(std::size_t e) override {
        if (in_[e]) return;
        value_ += marginal(e);
        in_[e] = true;
      }
      void reset() override {
        in_[0] = in_[1] = false;
        value_ = 0.0;
      }
      double value() const override { return value_; }
      std::unique_ptr<EvalState> clone() const override {
        return std::make_unique<State>(*this);
      }

     private:
      bool in_[2] = {false, false};
      double value_ = 0.0;
    };
    return std::make_unique<State>();
  }
};

TEST(Checker, DetectionUtilityPasses) {
  const DetectionUtility fn({0.4, 0.2, 0.7, 0.05, 0.9});
  util::Rng rng(1);
  const auto report = check_submodular(fn, rng, 500);
  EXPECT_TRUE(report.ok()) << report.violation;
}

TEST(Checker, MultiTargetDetectionPasses) {
  const auto fn =
      MultiTargetDetectionUtility::uniform(6, {{0, 1, 2}, {2, 3}, {4, 5, 0}}, 0.4);
  util::Rng rng(2);
  const auto report = check_submodular(fn, rng, 500);
  EXPECT_TRUE(report.ok()) << report.violation;
}

TEST(Checker, CoveragePasses) {
  // p = 1 is boolean target coverage: the value counts covered targets.
  const auto fn = MultiTargetDetectionUtility::uniform(
      4, {{0, 3}, {0, 1}, {1, 2}, {2, 3}}, 1.0);
  EXPECT_DOUBLE_EQ(fn.value(std::vector<std::size_t>{0, 1}), 3.0);
  util::Rng rng(3);
  EXPECT_TRUE(check_submodular(fn, rng, 500).ok());
}

TEST(Checker, LogSumPasses) {
  const auto fn = make_log_sum_utility({3.0, 1.0, 4.0, 1.0, 5.0});
  util::Rng rng(4);
  EXPECT_TRUE(check_submodular(fn, rng, 500).ok());
}

TEST(Checker, ModularPasses) {
  const auto fn = modular({1.0, 2.0, 3.0});
  util::Rng rng(5);
  EXPECT_TRUE(check_submodular(fn, rng, 500).ok());
}

TEST(Checker, AreaUtilityPasses) {
  const geom::Rect region = geom::Rect::square(10.0);
  const std::vector<geom::Disk> disks{geom::Disk({3.0, 5.0}, 2.0),
                                      geom::Disk({5.0, 5.0}, 2.0),
                                      geom::Disk({7.0, 6.0}, 1.5)};
  const AreaUtility fn(std::make_shared<geom::Arrangement>(region, disks, 128));
  util::Rng rng(7);
  EXPECT_TRUE(check_submodular(fn, rng, 300).ok());
}

TEST(Checker, CatchesSupermodularity) {
  const SupermodularPair fn;
  util::Rng rng(8);
  const auto report = check_submodular(fn, rng, 500);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.submodular);
}

TEST(Checker, CatchesNonMonotonicity) {
  const Decreasing fn;
  util::Rng rng(9);
  const auto report = check_submodular(fn, rng, 500);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.monotone);
}

TEST(Checker, EmptyGroundSetTriviallyOk) {
  const auto fn = modular({});
  util::Rng rng(10);
  EXPECT_TRUE(check_submodular(fn, rng, 10).ok());
}

TEST(Curvature, ModularHasZeroCurvature) {
  const auto fn = modular({1.0, 2.0, 3.0});
  EXPECT_NEAR(estimate_curvature(fn), 0.0, 1e-12);
}

TEST(Curvature, DetectionHasPositiveCurvature) {
  const DetectionUtility fn({0.4, 0.4, 0.4});
  // Drop from removing e: (1−0.6^3)−(1−0.6^2) = 0.6^2·0.4; singleton 0.4.
  EXPECT_NEAR(estimate_curvature(fn), 1.0 - 0.36, 1e-12);
}

TEST(Curvature, EmptyGroundIsZero) {
  const auto fn = modular({});
  EXPECT_DOUBLE_EQ(estimate_curvature(fn), 0.0);
}

TEST(CurvatureGuarantee, EndpointsAndMonotonicity) {
  EXPECT_DOUBLE_EQ(greedy_guarantee_from_curvature(0.0), 1.0);   // modular
  EXPECT_DOUBLE_EQ(greedy_guarantee_from_curvature(1.0), 0.5);   // Lemma 4.1
  EXPECT_GT(greedy_guarantee_from_curvature(0.3),
            greedy_guarantee_from_curvature(0.7));
  // Out-of-range inputs clamp.
  EXPECT_DOUBLE_EQ(greedy_guarantee_from_curvature(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(greedy_guarantee_from_curvature(5.0), 0.5);
}

TEST(CurvatureGuarantee, RefinesHalfForDetectionUtility) {
  // p = 0.4 over 3 sensors: c = 0.64, so greedy is guaranteed
  // 1/1.64 ≈ 0.61 — strictly better than the generic 1/2.
  const DetectionUtility fn({0.4, 0.4, 0.4});
  const double guarantee = greedy_guarantee_from_curvature(estimate_curvature(fn));
  EXPECT_GT(guarantee, 0.5);
  EXPECT_NEAR(guarantee, 1.0 / 1.64, 1e-12);
}

}  // namespace
}  // namespace cool::sub
