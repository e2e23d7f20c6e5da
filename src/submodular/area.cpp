#include "submodular/area.h"

#include <stdexcept>

namespace cool::sub {

namespace {

// Weighted coverage of arrangement faces: a face of weight w_i · |A_i|
// counts once, when the first sensor whose disk contains it is added.
class AreaState final : public EvalState {
 public:
  AreaState(const std::vector<std::vector<std::size_t>>* faces_of,
            const std::vector<double>* face_value)
      : faces_of_(faces_of), face_value_(face_value),
        face_covered_(face_value->size(), 0), in_set_(faces_of->size(), 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    double gain = 0.0;
    for (const auto face : (*faces_of_)[e])
      if (!face_covered_[face]) gain += (*face_value_)[face];
    return gain;
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    for (const auto face : (*faces_of_)[e]) {
      if (!face_covered_[face]) {
        face_covered_[face] = 1;
        value_ += (*face_value_)[face];
      }
    }
  }

  void reset() override {
    face_covered_.assign(face_covered_.size(), 0);
    in_set_.assign(in_set_.size(), 0);
    value_ = 0.0;
  }

  double value() const override { return value_; }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<AreaState>(*this);
  }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size()) throw std::out_of_range("AreaUtility: element");
  }
  const std::vector<std::vector<std::size_t>>* faces_of_;
  const std::vector<double>* face_value_;
  std::vector<std::uint8_t> face_covered_;
  std::vector<std::uint8_t> in_set_;
  double value_ = 0.0;
};

}  // namespace

struct AreaUtilityData {
  std::vector<double> face_value;
};

AreaUtility::AreaUtility(std::shared_ptr<const geom::Arrangement> arrangement)
    : arrangement_(std::move(arrangement)) {
  if (!arrangement_) throw std::invalid_argument("AreaUtility: null arrangement");
  faces_of_.resize(arrangement_->disk_count());
  const auto& faces = arrangement_->subregions();
  for (std::size_t f = 0; f < faces.size(); ++f)
    for (const auto sensor : faces[f].covered_by.members())
      faces_of_[sensor].push_back(f);
}

std::size_t AreaUtility::ground_size() const { return arrangement_->disk_count(); }

std::unique_ptr<EvalState> AreaUtility::make_state() const {
  // Face values snapshot at state creation; weights are set on the
  // arrangement before building evaluators.
  const auto& faces = arrangement_->subregions();
  auto values = std::make_shared<std::vector<double>>();
  values->reserve(faces.size());
  for (const auto& face : faces) values->push_back(face.weight * face.area);
  // Keep the snapshot alive for the state's lifetime via a small adaptor.
  class OwningAreaState final : public EvalState {
   public:
    OwningAreaState(const std::vector<std::vector<std::size_t>>* faces_of,
                    std::shared_ptr<std::vector<double>> values)
        : values_(std::move(values)), inner_(faces_of, values_.get()) {}
    double marginal(std::size_t e) const override { return inner_.marginal(e); }
    void add(std::size_t e) override { inner_.add(e); }
    void reset() override { inner_.reset(); }
    double value() const override { return inner_.value(); }
    std::unique_ptr<EvalState> clone() const override {
      return std::make_unique<OwningAreaState>(*this);
    }

   private:
    std::shared_ptr<std::vector<double>> values_;
    AreaState inner_;
  };
  return std::make_unique<OwningAreaState>(&faces_of_, std::move(values));
}

double AreaUtility::max_value() const { return arrangement_->max_utility(); }

}  // namespace cool::sub
