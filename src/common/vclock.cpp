#include "common/vclock.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace dsm {

void VectorClock::merge(const VectorClock& other) {
  DSM_CHECK(other.size() == size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i] = std::max(components_[i], other.components_[i]);
  }
}

bool VectorClock::dominates(const VectorClock& other) const {
  DSM_CHECK(other.size() == size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] < other.components_[i]) return false;
  }
  return true;
}

std::string VectorClock::to_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i != 0) out << ',';
    out << components_[i];
  }
  out << ']';
  return out.str();
}

}  // namespace dsm
