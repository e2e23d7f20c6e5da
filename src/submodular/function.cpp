#include "submodular/function.h"

#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/arena.h"

namespace cool::sub {

void EvalState::marginal_batch(std::span<const std::size_t> elements,
                               std::span<double> out_gains) const {
  if (out_gains.size() < elements.size())
    throw std::invalid_argument("EvalState::marginal_batch: gains span too small");
  for (std::size_t i = 0; i < elements.size(); ++i)
    out_gains[i] = marginal(elements[i]);
}

void EvalState::remove(std::size_t) {
  throw std::logic_error("EvalState::remove: state cannot remove");
}

DependentsScratch::DependentsScratch(util::Arena& arena, std::size_t elements)
    : stamp_(arena.allocate_array<std::uint32_t>(elements)),
      // One slot past the longest list: insert() writes it for repeats.
      list_(arena.allocate_array<std::size_t>(elements + 1)),
      elements_(elements) {
  std::memset(stamp_, 0, elements * sizeof(std::uint32_t));
}

void DependentsScratch::begin() noexcept {
  size_ = 0;
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Wrap-around: clear the stamps once so no stale one matches epoch 1.
    std::memset(stamp_, 0, elements_ * sizeof(std::uint32_t));
    epoch_ = 0;
  }
  ++epoch_;
}

double SubmodularFunction::value(std::span<const std::size_t> set) const {
  const auto state = make_state();
  for (const auto e : set) {
    if (e >= ground_size())
      throw std::out_of_range("SubmodularFunction::value: element out of range");
    state->add(e);
  }
  return state->value();
}

double SubmodularFunction::max_value() const {
  std::vector<std::size_t> all(ground_size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return value(all);
}

std::optional<std::span<const std::size_t>> SubmodularFunction::dependents(
    std::size_t, DependentsScratch&) const {
  return std::nullopt;
}

}  // namespace cool::sub
