// Epoch-stamped per-part weight scratch: O(1) "have I seen this part?"
// dedup with O(1) amortized reset, plus a weight accumulator on the same
// stamps. Partition::neighbor_parts and Partition::connections fill it;
// callers own one (thread_local where concurrent engines share code) and
// read the adjacent parts and their connection weights back from it.
//
// begin() bumps the epoch instead of clearing, so a scratch reused across
// millions of calls never pays for parts it does not touch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ffp {

class PartMarkScratch {
 public:
  /// Starts a new marking round over part ids in [0, num_parts).
  void begin(int num_parts) {
    const auto need = static_cast<std::size_t>(num_parts);
    if (stamp_.size() < need) {
      stamp_.resize(need, 0);
      acc_.resize(need, 0.0);
    }
    if (++epoch_ == 0) {  // epoch wrapped: stale stamps could collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    marked_.clear();
  }

  /// Accumulates w onto p's weight cell; p's first weight is stored as is.
  void add_weight(int p, Weight w) {
    auto& stamp = stamp_[static_cast<std::size_t>(p)];
    if (stamp != epoch_) {
      stamp = epoch_;
      marked_.push_back(p);
      acc_[static_cast<std::size_t>(p)] = w;
    } else {
      acc_[static_cast<std::size_t>(p)] += w;
    }
  }

  Weight weight(int p) const { return acc_[static_cast<std::size_t>(p)]; }

  /// Distinct parts added since begin(), in first-added order.
  std::span<const int> marked() const { return marked_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<Weight> acc_;
  std::uint32_t epoch_ = 0;
  std::vector<int> marked_;
};

}  // namespace ffp
