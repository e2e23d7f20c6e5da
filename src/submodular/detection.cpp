#include "submodular/detection.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace cool::sub {

namespace {

std::atomic<MarginalKernel> g_kernel{MarginalKernel::kAuto};

class SingleState final : public EvalState {
 public:
  explicit SingleState(const std::vector<double>* p) : p_(p), in_set_(p->size(), 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    return miss_ * (*p_)[e];
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    miss_ *= 1.0 - (*p_)[e];
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    miss_ = 1.0;
  }

  double value() const override { return 1.0 - miss_; }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<SingleState>(*this);
  }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size()) throw std::out_of_range("DetectionUtility: element");
  }
  const std::vector<double>* p_;
  std::vector<std::uint8_t> in_set_;
  double miss_ = 1.0;  // Π (1 − p_j) over the current set
};

class MultiState final : public EvalState {
 public:
  MultiState(const std::vector<MultiTargetDetectionUtility::Target>* targets,
             const std::vector<std::vector<std::pair<std::size_t, double>>>* by_sensor)
      : targets_(targets),
        by_sensor_(by_sensor),
        miss_(targets->size(), 1.0),
        in_set_(by_sensor->size(), 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    double gain = 0.0;
    for (const auto& [target, p] : (*by_sensor_)[e])
      gain += (*targets_)[target].weight * miss_[target] * p;
    return gain;
  }

  void marginal_batch(std::span<const std::size_t> elements,
                      std::span<double> out_gains) const override {
    if (out_gains.size() < elements.size())
      throw std::invalid_argument(
          "MultiState::marginal_batch: gains span too small");
    // Same arithmetic as the scalar path (term-for-term, in list order) so
    // the batched gains are bit-identical to marginal().
    for (std::size_t i = 0; i < elements.size(); ++i)
      out_gains[i] = marginal(elements[i]);
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    for (const auto& [target, p] : (*by_sensor_)[e]) miss_[target] *= 1.0 - p;
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    miss_.assign(miss_.size(), 1.0);
  }

  double value() const override {
    double total = 0.0;
    for (std::size_t i = 0; i < miss_.size(); ++i)
      total += (*targets_)[i].weight * (1.0 - miss_[i]);
    return total;
  }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<MultiState>(*this);
  }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size())
      throw std::out_of_range("MultiTargetDetectionUtility: element");
  }
  const std::vector<MultiTargetDetectionUtility::Target>* targets_;
  const std::vector<std::vector<std::pair<std::size_t, double>>>* by_sensor_;
  std::vector<double> miss_;          // per-target Π (1 − p)
  std::vector<std::uint8_t> in_set_;
};

// Cache-linear fast kernel over the flattened CSR. Identical arithmetic to
// MultiState, term for term:
//
//   reference:  gain += (weight_t * miss_t) * p     (left-associated)
//   fast path:  gain += weighted_miss_[t]   * p     where weighted_miss_[t]
//               is maintained as exactly weight_t * miss_t
//
// Same two operands, same product, same summation order — so the restructure
// is purely a memory-layout change and every result is bit-identical. What
// changes is the access pattern: the target stream and probability stream
// are each one contiguous run, and the only gather left is weighted_miss_
// (one double per target) instead of the reference's two (a 32-byte-stride
// weight inside Target plus the miss array) behind a vector-of-vectors
// indirection.
//
// Counted mode (DESIGN.md section 16), when the utility hands over a miss
// table: every pair has the same factor 1 − p, so miss_t after k adds is
// the k-fold product table[k] in any add order. The state then keeps a
// count per target instead of miss_t, and remove() is the exact inverse of
// add(): both set weighted_miss_[t] = weight_t * table[count_t].
class FastMultiState final : public EvalState {
 public:
  FastMultiState(const std::vector<std::size_t>* offsets,
                 const std::vector<std::uint32_t>* targets,
                 const std::vector<double>* probs,
                 const std::vector<double>* weights,
                 const std::vector<double>* miss_table)
      : offsets_(offsets),
        targets_(targets),
        probs_(probs),
        weights_(weights),
        miss_table_(miss_table),
        weighted_miss_(*weights),  // weight * 1.0 == weight bit-for-bit
        in_set_(offsets->size() - 1, 0) {
    if (miss_table_)
      count_.assign(weights->size(), 0);
    else
      miss_.assign(weights->size(), 1.0);
  }

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    const std::uint32_t* targets = targets_->data();
    const double* probs = probs_->data();
    const double* wm = weighted_miss_.data();
    double gain = 0.0;
    const std::size_t end = (*offsets_)[e + 1];
    for (std::size_t i = (*offsets_)[e]; i < end; ++i)
      gain += wm[targets[i]] * probs[i];
    return gain;
  }

  void marginal_batch(std::span<const std::size_t> elements,
                      std::span<double> out_gains) const override {
    if (out_gains.size() < elements.size())
      throw std::invalid_argument(
          "FastMultiState::marginal_batch: gains span too small");
    const std::size_t* offsets = offsets_->data();
    const std::uint32_t* targets = targets_->data();
    const double* probs = probs_->data();
    const double* wm = weighted_miss_.data();
    for (std::size_t k = 0; k < elements.size(); ++k) {
      const std::size_t e = elements[k];
      check(e);
      if (in_set_[e]) {
        out_gains[k] = 0.0;
        continue;
      }
      double gain = 0.0;
      const std::size_t end = offsets[e + 1];
      for (std::size_t i = offsets[e]; i < end; ++i)
        gain += wm[targets[i]] * probs[i];
      out_gains[k] = gain;
    }
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    const std::size_t end = (*offsets_)[e + 1];
    if (miss_table_) {
      for (std::size_t i = (*offsets_)[e]; i < end; ++i) {
        const std::uint32_t t = (*targets_)[i];
        weighted_miss_[t] = (*weights_)[t] * (*miss_table_)[++count_[t]];
      }
      return;
    }
    for (std::size_t i = (*offsets_)[e]; i < end; ++i) {
      const std::uint32_t t = (*targets_)[i];
      miss_[t] *= 1.0 - (*probs_)[i];
      weighted_miss_[t] = (*weights_)[t] * miss_[t];
    }
  }

  bool can_remove() const noexcept override { return miss_table_ != nullptr; }

  void remove(std::size_t e) override {
    if (!miss_table_) EvalState::remove(e);
    check(e);
    if (!in_set_[e]) return;
    in_set_[e] = 0;
    const std::size_t end = (*offsets_)[e + 1];
    for (std::size_t i = (*offsets_)[e]; i < end; ++i) {
      const std::uint32_t t = (*targets_)[i];
      weighted_miss_[t] = (*weights_)[t] * (*miss_table_)[--count_[t]];
    }
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    if (miss_table_)
      count_.assign(count_.size(), 0);
    else
      miss_.assign(miss_.size(), 1.0);
    weighted_miss_ = *weights_;
  }

  double value() const override {
    double total = 0.0;
    if (miss_table_) {
      for (std::size_t i = 0; i < count_.size(); ++i)
        total += (*weights_)[i] * (1.0 - (*miss_table_)[count_[i]]);
      return total;
    }
    for (std::size_t i = 0; i < miss_.size(); ++i)
      total += (*weights_)[i] * (1.0 - miss_[i]);
    return total;
  }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<FastMultiState>(*this);
  }

  // Fused-evaluator plumbing (resolve_fused): the CSR identity triple is
  // compared across slot states to prove they share one utility, and the
  // per-state gather arrays feed the single-pass multi-slot kernel.
  const std::vector<std::size_t>* csr_offsets() const noexcept {
    return offsets_;
  }
  const std::vector<std::uint32_t>* csr_targets() const noexcept {
    return targets_;
  }
  const std::vector<double>* csr_probs() const noexcept { return probs_; }
  const double* weighted_miss_data() const noexcept {
    return weighted_miss_.data();
  }
  const std::uint8_t* in_set_data() const noexcept { return in_set_.data(); }
  std::size_t element_count() const noexcept { return in_set_.size(); }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size())
      throw std::out_of_range("MultiTargetDetectionUtility: element");
  }
  const std::vector<std::size_t>* offsets_;
  const std::vector<std::uint32_t>* targets_;
  const std::vector<double>* probs_;
  const std::vector<double>* weights_;
  const std::vector<double>* miss_table_;  // counted mode iff non-null
  std::vector<double> miss_;           // per-target Π (1 − p), uncounted
  std::vector<std::uint32_t> count_;   // per-target add count, counted
  std::vector<double> weighted_miss_;  // weight_t * miss_t, exactly
  std::vector<std::uint8_t> in_set_;
};

// One pass over each candidate's CSR row accumulating every slot's gain,
// tracking the per-slot first strict maximum as it goes. Per (id, slot)
// the terms wm_t[target] * p are added in row order — the exact adds
// marginal() performs — so the gains the argmax compares are bit-identical
// to the per-slot batch path; only the loads of targets[i] / probs[i] are
// shared across slots, and no gain ever round-trips through memory.
// kSlots is a compile-time constant for the common small T so the
// accumulators live in registers; the dynamic fallback handles any slot
// count resolve_fused admits. Preconditions (valid ids, no id a member of
// any state's set) are the FusedSlotEvaluator contract and are not
// re-checked here.
template <std::size_t kSlots>
void fused_detection_rows(const EvalState* const* states, std::size_t,
                          const std::size_t* ids, std::size_t id_count,
                          double* best_gain, std::size_t* best_index) {
  const auto* s0 = static_cast<const FastMultiState*>(states[0]);
  const std::size_t* offsets = s0->csr_offsets()->data();
  const std::uint32_t* targets = s0->csr_targets()->data();
  const double* probs = s0->csr_probs()->data();
  const double* wm[kSlots];
  for (std::size_t t = 0; t < kSlots; ++t)
    wm[t] = static_cast<const FastMultiState*>(states[t])->weighted_miss_data();
  double bg[kSlots];
  std::size_t bi[kSlots];
  for (std::size_t t = 0; t < kSlots; ++t) {
    bg[t] = -1.0;  // every real gain is >= 0, so k = 0 always wins it
    bi[t] = 0;
  }
  for (std::size_t k = 0; k < id_count; ++k) {
    const std::size_t e = ids[k];
    double acc[kSlots] = {};
    const std::size_t end = offsets[e + 1];
    for (std::size_t i = offsets[e]; i < end; ++i) {
      const std::uint32_t tgt = targets[i];
      const double p = probs[i];
      // Fully unrolled so the accumulators (and the wm row pointers) are
      // scalarized into registers; the rolled form kept acc[] on the
      // stack and reloaded wm[t] from memory on every row entry.
#pragma GCC unroll 64
      for (std::size_t t = 0; t < kSlots; ++t) acc[t] += wm[t][tgt] * p;
    }
#pragma GCC unroll 64
    for (std::size_t t = 0; t < kSlots; ++t) {
      if (acc[t] > bg[t]) {  // strict: first maximum wins, as in the
        bg[t] = acc[t];      // serial ascending scan
        bi[t] = k;
      }
    }
  }
  for (std::size_t t = 0; t < kSlots; ++t) {
    best_gain[t] = bg[t];
    best_index[t] = bi[t];
  }
}

void fused_detection_rows_dynamic(const EvalState* const* states,
                                  std::size_t state_count,
                                  const std::size_t* ids, std::size_t id_count,
                                  double* best_gain, std::size_t* best_index) {
  const auto* s0 = static_cast<const FastMultiState*>(states[0]);
  const std::size_t* offsets = s0->csr_offsets()->data();
  const std::uint32_t* targets = s0->csr_targets()->data();
  const double* probs = s0->csr_probs()->data();
  const double* wm[FusedSlotEvaluator::kMaxSlots];
  for (std::size_t t = 0; t < state_count; ++t)
    wm[t] = static_cast<const FastMultiState*>(states[t])->weighted_miss_data();
  for (std::size_t t = 0; t < state_count; ++t) {
    best_gain[t] = -1.0;
    best_index[t] = 0;
  }
  for (std::size_t k = 0; k < id_count; ++k) {
    const std::size_t e = ids[k];
    double acc[FusedSlotEvaluator::kMaxSlots] = {};
    const std::size_t end = offsets[e + 1];
    for (std::size_t i = offsets[e]; i < end; ++i) {
      const std::uint32_t tgt = targets[i];
      const double p = probs[i];
      for (std::size_t t = 0; t < state_count; ++t) acc[t] += wm[t][tgt] * p;
    }
    for (std::size_t t = 0; t < state_count; ++t) {
      if (acc[t] > best_gain[t]) {
        best_gain[t] = acc[t];
        best_index[t] = k;
      }
    }
  }
}

void validate_probability(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("detection probability outside [0, 1]");
}

}  // namespace

void set_marginal_kernel(MarginalKernel kernel) noexcept {
  g_kernel.store(kernel, std::memory_order_relaxed);
}

MarginalKernel marginal_kernel() noexcept {
  return g_kernel.load(std::memory_order_relaxed);
}

FusedSlotEvaluator resolve_fused(
    const std::vector<std::unique_ptr<EvalState>>& states) {
  if (states.empty() || states.size() > FusedSlotEvaluator::kMaxSlots)
    return {};
  const auto* first = dynamic_cast<const FastMultiState*>(states[0].get());
  if (first == nullptr) return {};
  for (const auto& state : states) {
    const auto* fast = dynamic_cast<const FastMultiState*>(state.get());
    // All slots must evaluate the exact same utility arrays, or the shared
    // offsets/targets/probs loads would be wrong for some slot.
    if (fast == nullptr || fast->csr_offsets() != first->csr_offsets() ||
        fast->csr_targets() != first->csr_targets() ||
        fast->csr_probs() != first->csr_probs())
      return {};
  }
  switch (states.size()) {
    case 1: return {fused_detection_rows<1>};
    case 2: return {fused_detection_rows<2>};
    case 3: return {fused_detection_rows<3>};
    case 4: return {fused_detection_rows<4>};
    case 5: return {fused_detection_rows<5>};
    case 6: return {fused_detection_rows<6>};
    case 7: return {fused_detection_rows<7>};
    case 8: return {fused_detection_rows<8>};
    case 12: return {fused_detection_rows<12>};
    default: return {fused_detection_rows_dynamic};
  }
}

DetectionUtility::DetectionUtility(std::vector<double> probabilities)
    : p_(std::move(probabilities)) {
  for (const double p : p_) validate_probability(p);
}

std::unique_ptr<EvalState> DetectionUtility::make_state() const {
  return std::make_unique<SingleState>(&p_);
}

double DetectionUtility::max_value() const {
  double miss = 1.0;
  for (const double p : p_) miss *= 1.0 - p;
  return 1.0 - miss;
}

MultiTargetDetectionUtility::MultiTargetDetectionUtility(std::size_t sensor_count,
                                                         std::vector<Target> targets)
    : sensor_count_(sensor_count),
      targets_(std::move(targets)),
      by_sensor_(sensor_count) {
  if (targets_.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("MultiTargetDetectionUtility: too many targets");
  std::size_t pair_count = 0;
  target_weights_.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const auto& target = targets_[i];
    if (target.weight <= 0.0)
      throw std::invalid_argument("MultiTargetDetectionUtility: weight <= 0");
    target_weights_.push_back(target.weight);
    for (const auto& [sensor, p] : target.detectors) {
      if (sensor >= sensor_count_)
        throw std::out_of_range("MultiTargetDetectionUtility: sensor index");
      validate_probability(p);
      by_sensor_[sensor].emplace_back(i, p);
      ++pair_count;
    }
  }
  // Flatten by_sensor_ to CSR struct-of-arrays, preserving per-sensor list
  // order so the fast kernel sums in the reference's order.
  csr_offsets_.reserve(sensor_count_ + 1);
  csr_targets_.reserve(pair_count);
  csr_probs_.reserve(pair_count);
  csr_offsets_.push_back(0);
  for (const auto& list : by_sensor_) {
    for (const auto& [target, p] : list) {
      csr_targets_.push_back(static_cast<std::uint32_t>(target));
      csr_probs_.push_back(p);
    }
    csr_offsets_.push_back(csr_targets_.size());
  }
  // Counted states need every miss product to be a power of one factor.
  // The products multiply by 1 − p, so that factor is what must agree; a
  // NaN never compares equal and keeps the uncounted path.
  const double factor = csr_probs_.empty() ? 1.0 : 1.0 - csr_probs_.front();
  if (std::all_of(csr_probs_.begin(), csr_probs_.end(),
                  [factor](double p) { return 1.0 - p == factor; })) {
    std::size_t max_fan_in = 0;
    for (const auto& target : targets_)
      max_fan_in = std::max(max_fan_in, target.detectors.size());
    miss_table_.resize(max_fan_in + 1);
    miss_table_[0] = 1.0;
    for (std::size_t k = 1; k <= max_fan_in; ++k)
      miss_table_[k] = miss_table_[k - 1] * factor;
  }
}

MultiTargetDetectionUtility MultiTargetDetectionUtility::uniform(
    std::size_t sensor_count, const std::vector<std::vector<std::size_t>>& covers,
    double p) {
  std::vector<Target> targets;
  targets.reserve(covers.size());
  for (const auto& sensors : covers) {
    Target t;
    t.detectors.reserve(sensors.size());
    for (const auto s : sensors) t.detectors.emplace_back(s, p);
    targets.push_back(std::move(t));
  }
  return MultiTargetDetectionUtility(sensor_count, std::move(targets));
}

std::unique_ptr<EvalState> MultiTargetDetectionUtility::make_state() const {
  // Layout change only — the fast state's arithmetic is bit-identical to
  // the reference's, which only an explicit kScalar selects.
  if (marginal_kernel() == MarginalKernel::kScalar)
    return std::make_unique<MultiState>(&targets_, &by_sensor_);
  return std::make_unique<FastMultiState>(
      &csr_offsets_, &csr_targets_, &csr_probs_, &target_weights_,
      miss_table_.empty() ? nullptr : &miss_table_);
}

std::optional<std::span<const std::size_t>>
MultiTargetDetectionUtility::dependents(std::size_t e,
                                        DependentsScratch& scratch) const {
  if (e >= sensor_count_)
    throw std::out_of_range("MultiTargetDetectionUtility: element");
  if (scratch.elements() < sensor_count_)
    throw std::invalid_argument(
        "MultiTargetDetectionUtility::dependents: scratch too small");
  scratch.begin();
  scratch.insert(e);
  for (std::size_t i = csr_offsets_[e]; i < csr_offsets_[e + 1]; ++i)
    for (const auto& [sensor, p] : targets_[csr_targets_[i]].detectors)
      scratch.insert(sensor);
  return scratch.list();
}

double MultiTargetDetectionUtility::max_value() const {
  double total = 0.0;
  for (const auto& target : targets_) {
    double miss = 1.0;
    for (const auto& [_, p] : target.detectors) miss *= 1.0 - p;
    total += target.weight * (1.0 - miss);
  }
  return total;
}

}  // namespace cool::sub
