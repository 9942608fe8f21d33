// Epoch-stamped part-id scratch: O(1) "have I seen this part?" dedup with
// O(1) amortized reset — the trick Partition::connections has always used,
// factored out so every hot loop that collects the distinct parts adjacent
// to a vertex (fusion-fission ejection/absorption, annealing's connected
// targets, k-way FM candidate parts) shares one implementation instead of
// an O(num_parts) std::find per neighbor.
//
// begin() bumps the epoch instead of clearing, so a scratch reused across
// millions of calls never pays for parts it does not touch. An optional
// per-part weight accumulator rides on the same stamps for callers that
// aggregate connection weights (Partition::connections).
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

  /// Marks p; returns true iff p was not yet marked since begin().
  bool mark(int p) {
    auto& stamp = stamp_[static_cast<std::size_t>(p)];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    marked_.push_back(p);
    return true;
  }

  /// Accumulates w onto p's weight cell (zeroed on first mark).
  void add_weight(int p, Weight w) {
    if (mark(p)) {
      acc_[static_cast<std::size_t>(p)] = w;
    } else {
      acc_[static_cast<std::size_t>(p)] += w;
    }
  }

  Weight weight(int p) const { return acc_[static_cast<std::size_t>(p)]; }

  /// Distinct parts marked since begin(), in first-marked order.
  std::span<const int> marked() const { return marked_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<Weight> acc_;
  std::uint32_t epoch_ = 0;
  std::vector<int> marked_;
};

}  // namespace ffp
