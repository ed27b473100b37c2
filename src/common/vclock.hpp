// Vector clocks, the happened-before bookkeeping for lazy release consistency
// (TreadMarks-style intervals and write notices).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dsm {

/// One logical-interval counter per node. Component i counts the intervals of
/// node i that this clock has "seen" (knows all writes of).
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t n_nodes) : components_(n_nodes, 0) {}

  std::size_t size() const { return components_.size(); }
  std::uint32_t operator[](NodeId node) const { return components_[node]; }

  /// Advances this node's own component (a new interval begins).
  void tick(NodeId self) { ++components_[self]; }
  void set(NodeId node, std::uint32_t value) { components_[node] = value; }

  /// Component-wise max (what an acquirer learns from a releaser).
  void merge(const VectorClock& other);

  /// True if every component of this clock is >= the other's ("knows at
  /// least as much"). Note: !dominates(a,b) && !dominates(b,a) ⇒ concurrent.
  bool dominates(const VectorClock& other) const;

  /// True iff this clock has seen interval `interval` of node `node`.
  bool covers(NodeId node, std::uint32_t interval) const {
    return components_[node] >= interval;
  }

  bool operator==(const VectorClock& other) const = default;

  const std::vector<std::uint32_t>& components() const { return components_; }
  std::string to_string() const;

 private:
  std::vector<std::uint32_t> components_;
};

}  // namespace dsm
