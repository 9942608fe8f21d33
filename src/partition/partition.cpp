#include "partition/partition.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace ffp {

Partition::Partition(const Graph& g, int num_parts) : g_(&g) {
  FFP_CHECK(num_parts >= 1, "need at least one part");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  part_.assign(n, 0);
  pos_in_part_.assign(n, 0);
  members_.resize(static_cast<std::size_t>(num_parts));
  cut_.assign(static_cast<std::size_t>(num_parts), 0.0);
  internal_.assign(static_cast<std::size_t>(num_parts), 0.0);
  vweight_.assign(static_cast<std::size_t>(num_parts), 0.0);
  nonempty_pos_.assign(static_cast<std::size_t>(num_parts), -1);
  rebuild();
}

Partition Partition::from_assignment(const Graph& g, std::span<const int> parts,
                                     int num_parts) {
  FFP_CHECK(static_cast<VertexId>(parts.size()) == g.num_vertices(),
            "assignment size ", parts.size(), " != n ", g.num_vertices());
  int k = num_parts;
  if (k < 0) {
    k = 0;
    for (int p : parts) k = std::max(k, p + 1);
    k = std::max(k, 1);
  }
  for (int p : parts) {
    FFP_CHECK(p >= 0 && p < k, "part id ", p, " out of range [0,", k, ")");
  }
  Partition out(g, k);
  std::copy(parts.begin(), parts.end(), out.part_.begin());
  out.rebuild();
  return out;
}

Partition Partition::singletons(const Graph& g) {
  FFP_CHECK(g.num_vertices() >= 1, "empty graph");
  Partition out(g, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.part_[static_cast<std::size_t>(v)] = v;
  }
  out.rebuild();
  return out;
}

void Partition::rebuild() {
  const VertexId n = g_->num_vertices();
  for (auto& m : members_) m.clear();
  std::fill(cut_.begin(), cut_.end(), 0.0);
  std::fill(internal_.begin(), internal_.end(), 0.0);
  std::fill(vweight_.begin(), vweight_.end(), 0.0);
  std::fill(nonempty_pos_.begin(), nonempty_pos_.end(), -1);
  nonempty_.clear();
  total_cut_pairs_ = 0.0;

  for (VertexId v = 0; v < n; ++v) {
    const auto p = static_cast<std::size_t>(part_[static_cast<std::size_t>(v)]);
    FFP_CHECK(p < members_.size(), "assignment references missing part");
    pos_in_part_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(members_[p].size());
    members_[p].push_back(v);
    vweight_[p] += g_->vertex_weight(v);
  }
  for (std::size_t p = 0; p < members_.size(); ++p) {
    if (!members_[p].empty()) {
      nonempty_pos_[p] = static_cast<std::int32_t>(nonempty_.size());
      nonempty_.push_back(static_cast<int>(p));
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    const int pv = part_[static_cast<std::size_t>(v)];
    const auto nbrs = g_->neighbors(v);
    const auto ws = g_->neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part_[static_cast<std::size_t>(nbrs[i])] == pv) {
        internal_[static_cast<std::size_t>(pv)] += ws[i];  // ordered pairs
      } else {
        cut_[static_cast<std::size_t>(pv)] += ws[i];
        total_cut_pairs_ += ws[i];
      }
    }
  }
}

void Partition::move(VertexId v, int target) {
  FFP_DCHECK(v >= 0 && v < g_->num_vertices());
  if (part_[static_cast<std::size_t>(v)] == target) {
    check_part(target);
    return;
  }
  // One neighbor scan gives both connection weights.
  move(v, target, move_profile(v, target));
}

void Partition::move(VertexId v, int target, const MoveProfile& profile) {
  FFP_DCHECK(v >= 0 && v < g_->num_vertices());
  const auto t = check_part(target);
  const auto f = static_cast<std::size_t>(part_[static_cast<std::size_t>(v)]);
  if (f == t) return;
#ifndef NDEBUG
  {
    const MoveProfile fresh = move_profile(v, target);
    FFP_DCHECK(fresh.ext_from == profile.ext_from &&
                   fresh.ext_to == profile.ext_to,
               "profiled move given a stale profile for vertex ", v);
  }
#endif
  const Weight ext_from = profile.ext_from;
  const Weight ext_to = profile.ext_to;
  const Weight d = g_->weighted_degree(v);

  // cut(A,V−A) updates follow from counting which of v's edges flip between
  // internal and crossing; edges to third parts stay crossing for both ends.
  cut_[f] += 2.0 * ext_from - d;
  cut_[t] += d - 2.0 * ext_to;
  internal_[f] -= 2.0 * ext_from;
  internal_[t] += 2.0 * ext_to;
  total_cut_pairs_ += 2.0 * (ext_from - ext_to);

  const Weight vw = g_->vertex_weight(v);
  vweight_[f] -= vw;
  vweight_[t] += vw;

  // Swap-remove from old member list.
  auto& from_members = members_[f];
  const auto pos = static_cast<std::size_t>(pos_in_part_[static_cast<std::size_t>(v)]);
  const VertexId last = from_members.back();
  from_members[pos] = last;
  pos_in_part_[static_cast<std::size_t>(last)] = static_cast<std::int32_t>(pos);
  from_members.pop_back();
  if (from_members.empty()) {
    // Remove f from the non-empty list (swap-remove as well).
    const auto npos = static_cast<std::size_t>(nonempty_pos_[f]);
    const int moved = nonempty_.back();
    nonempty_[npos] = moved;
    nonempty_pos_[static_cast<std::size_t>(moved)] = static_cast<std::int32_t>(npos);
    nonempty_.pop_back();
    nonempty_pos_[f] = -1;
    cut_[f] = 0.0;       // clear any residual floating-point dust
    internal_[f] = 0.0;
    vweight_[f] = 0.0;
  } else if (from_members.size() == 1) {
    // A singleton part has exactly zero internal weight and a cut equal to
    // its vertex's weighted degree. Pin both: the ± dust that incremental
    // updates leave behind would otherwise land in ratio denominators
    // (Mcut's cut/W(A) on a true-zero W(A) becomes cut/1e-14 ≈ 1e15
    // instead of the intended penalty — garbage energies).
    cut_[f] = g_->weighted_degree(from_members[0]);
    internal_[f] = 0.0;
  } else if (internal_[f] < g_->min_edge_weight()) {
    // A true internal edge contributes at least 2× the minimum edge weight,
    // so anything below min_edge_weight is cancellation dust on an
    // internal-edge-free part (e.g. a scattered independent set) — the same
    // ratio-denominator hazard as the singleton case. Also covers negative
    // dust (internal weight is a sum of edge weights, hence >= 0).
    internal_[f] = 0.0;
  }

  if (members_[t].empty()) {
    nonempty_pos_[t] = static_cast<std::int32_t>(nonempty_.size());
    nonempty_.push_back(target);
  }
  pos_in_part_[static_cast<std::size_t>(v)] =
      static_cast<std::int32_t>(members_[t].size());
  members_[t].push_back(v);
  part_[static_cast<std::size_t>(v)] = target;
}

void Partition::merge_into(int src, int dst, Weight w_between) {
  const auto s = check_part(src);
  const auto d = check_part(dst);
  FFP_CHECK(s != d, "cannot merge a part into itself");
  FFP_CHECK(!members_[s].empty(), "cannot merge an empty part");
#ifndef NDEBUG
  {
    Weight fresh = 0.0;
    for (VertexId v : members_[s]) fresh += ext_degree(v, dst);
    FFP_DCHECK(std::abs(fresh - w_between) <=
                   1e-7 * std::max(1.0, std::abs(fresh)),
               "merge_into w_between ", w_between,
               " does not match recomputed ", fresh);
  }
#endif

  cut_[d] = cut_[s] + cut_[d] - 2.0 * w_between;
  internal_[d] = internal_[s] + internal_[d] + 2.0 * w_between;
  vweight_[d] += vweight_[s];
  total_cut_pairs_ -= 2.0 * w_between;

  auto& dst_members = members_[d];
  const bool dst_was_empty = dst_members.empty();
  for (VertexId v : members_[s]) {
    part_[static_cast<std::size_t>(v)] = dst;
    pos_in_part_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(dst_members.size());
    dst_members.push_back(v);
  }
  members_[s].clear();
  cut_[s] = 0.0;
  internal_[s] = 0.0;
  vweight_[s] = 0.0;

  // Non-empty list maintenance, as in move().
  const auto npos = static_cast<std::size_t>(nonempty_pos_[s]);
  const int moved = nonempty_.back();
  nonempty_[npos] = moved;
  nonempty_pos_[static_cast<std::size_t>(moved)] = static_cast<std::int32_t>(npos);
  nonempty_.pop_back();
  nonempty_pos_[s] = -1;
  if (dst_was_empty) {
    nonempty_pos_[d] = static_cast<std::int32_t>(nonempty_.size());
    nonempty_.push_back(dst);
  }
}

void Partition::split_off(int src, int fresh, std::span<const VertexId> moved) {
  const auto si = check_part(src);
  const auto fi = check_part(fresh);
  FFP_CHECK(si != fi, "cannot split a part into itself");
  FFP_CHECK(members_[fi].empty(), "split target part must be empty");
  FFP_CHECK(!moved.empty() && moved.size() < members_[si].size(),
            "split must move a non-empty proper subset");

  // Relabel the moved vertices, then compact the source member list.
  auto& fresh_members = members_[fi];
  for (VertexId v : moved) {
    FFP_DCHECK(part_[static_cast<std::size_t>(v)] == src,
               "split vertex not in source part");
    part_[static_cast<std::size_t>(v)] = fresh;
    pos_in_part_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(fresh_members.size());
    fresh_members.push_back(v);
  }
  auto& src_members = members_[si];
  std::size_t keep = 0;
  for (VertexId v : src_members) {
    if (part_[static_cast<std::size_t>(v)] == src) {
      src_members[keep] = v;
      pos_in_part_[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(keep);
      ++keep;
    }
  }
  src_members.resize(keep);

  // One arc scan over the moved side gives its volume/internal weight and
  // its connection to the remainder; the split identities give the rest.
  Weight vol_moved = 0.0, int_moved = 0.0, w_between = 0.0, vw_moved = 0.0;
  for (VertexId v : moved) {
    vol_moved += g_->weighted_degree(v);
    vw_moved += g_->vertex_weight(v);
    const auto nbrs = g_->neighbors(v);
    const auto ws = g_->neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int pu = part_[static_cast<std::size_t>(nbrs[i])];
      if (pu == fresh) int_moved += ws[i];
      else if (pu == src) w_between += ws[i];
    }
  }
  const Weight vol_src_old = cut_[si] + internal_[si];  // assoc == vol
  const Weight cut_src_old = cut_[si];
  Weight int_kept = internal_[si] - int_moved - 2.0 * w_between;
  // Subtraction dust below the smallest possible internal contribution
  // means the kept side holds no internal edge at all (see move()).
  if (int_kept < g_->min_edge_weight()) int_kept = 0.0;
  const Weight cut_moved = vol_moved - int_moved;
  const Weight cut_kept = (vol_src_old - vol_moved) - int_kept;

  cut_[si] = cut_kept;
  internal_[si] = int_kept;
  vweight_[si] -= vw_moved;
  cut_[fi] = cut_moved;
  internal_[fi] = int_moved;
  vweight_[fi] = vw_moved;
  total_cut_pairs_ += cut_kept + cut_moved - cut_src_old;

  // Exact singleton statistics, as in move().
  if (src_members.size() == 1) {
    cut_[si] = g_->weighted_degree(src_members[0]);
    internal_[si] = 0.0;
  }
  if (fresh_members.size() == 1) {
    cut_[fi] = g_->weighted_degree(fresh_members[0]);
    internal_[fi] = 0.0;
  }

  nonempty_pos_[fi] = static_cast<std::int32_t>(nonempty_.size());
  nonempty_.push_back(fresh);
}

int Partition::make_part() {
  members_.emplace_back();
  cut_.push_back(0.0);
  internal_.push_back(0.0);
  vweight_.push_back(0.0);
  nonempty_pos_.push_back(-1);
  return num_parts() - 1;
}

Weight Partition::ext_degree(VertexId v, int p) const {
  FFP_DCHECK(v >= 0 && v < g_->num_vertices());
  check_part(p);
  Weight total = 0.0;
  const auto nbrs = g_->neighbors(v);
  const auto ws = g_->neighbor_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (part_[static_cast<std::size_t>(nbrs[i])] == p) total += ws[i];
  }
  return total;
}

Partition::MoveProfile Partition::move_profile(VertexId v, int target) const {
  FFP_DCHECK(v >= 0 && v < g_->num_vertices());
  check_part(target);
  const int from = part_of(v);
  MoveProfile prof;
  const auto nbrs = g_->neighbors(v);
  const auto ws = g_->neighbor_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const int pu = part_[static_cast<std::size_t>(nbrs[i])];
    if (pu == from) prof.ext_from += ws[i];
    else if (pu == target) prof.ext_to += ws[i];
  }
  return prof;
}

void Partition::connections(int p, PartMarkScratch& adjacent) const {
  check_part(p);
  adjacent.begin(num_parts());
  for (VertexId v : members_[static_cast<std::size_t>(p)]) {
    const auto nbrs = g_->neighbors(v);
    const auto ws = g_->neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int pu = part_[static_cast<std::size_t>(nbrs[i])];
      if (pu != p) adjacent.add_weight(pu, ws[i]);
    }
  }
}

std::vector<int> Partition::compact() {
  std::vector<int> remap(static_cast<std::size_t>(num_parts()), -1);
  int next = 0;
  for (std::size_t p = 0; p < members_.size(); ++p) {
    if (!members_[p].empty()) remap[p] = next++;
  }
  for (auto& pv : part_) pv = remap[static_cast<std::size_t>(pv)];
  members_.resize(static_cast<std::size_t>(next));
  cut_.resize(static_cast<std::size_t>(next));
  internal_.resize(static_cast<std::size_t>(next));
  vweight_.resize(static_cast<std::size_t>(next));
  nonempty_pos_.resize(static_cast<std::size_t>(next));
  rebuild();
  return remap;
}

void Partition::validate() const {
  Partition fresh = Partition::from_assignment(*g_, part_, num_parts());
  FFP_CHECK(close(fresh.total_cut_pairs_, total_cut_pairs_, 1e-7, 1e-7),
            "total cut drifted: ", total_cut_pairs_, " vs ",
            fresh.total_cut_pairs_);
  FFP_CHECK(fresh.nonempty_.size() == nonempty_.size(),
            "non-empty count drifted");
  for (int p = 0; p < num_parts(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    FFP_CHECK(close(fresh.cut_[i], cut_[i], 1e-7, 1e-7),
              "part ", p, " cut drifted: ", cut_[i], " vs ", fresh.cut_[i]);
    FFP_CHECK(close(fresh.internal_[i], internal_[i], 1e-7, 1e-7),
              "part ", p, " internal drifted");
    FFP_CHECK(close(fresh.vweight_[i], vweight_[i], 1e-7, 1e-7),
              "part ", p, " vertex weight drifted");
    FFP_CHECK(fresh.members_[i].size() == members_[i].size(),
              "part ", p, " size drifted");
  }
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    const auto p = static_cast<std::size_t>(part_[static_cast<std::size_t>(v)]);
    const auto pos = static_cast<std::size_t>(pos_in_part_[static_cast<std::size_t>(v)]);
    FFP_CHECK(pos < members_[p].size() && members_[p][pos] == v,
              "member list inconsistent for vertex ", v);
  }
}

}  // namespace ffp
