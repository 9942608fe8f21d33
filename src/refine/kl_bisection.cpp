#include "refine/kl_bisection.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace ffp {

namespace {

/// D(v) = external − internal connection for v w.r.t. the two sides.
double d_value(const Partition& p, VertexId v, int own, int other) {
  const auto prof = p.move_profile(v, other);
  (void)own;
  return prof.ext_to - prof.ext_from;
}

/// Collect the `window` highest-D unlocked vertices of `side`.
void top_candidates(const Partition& p, int side, int other,
                    const std::vector<char>& locked, int window,
                    std::vector<std::pair<double, VertexId>>& out) {
  out.clear();
  for (VertexId v : p.members(side)) {
    if (locked[static_cast<std::size_t>(v)]) continue;
    out.emplace_back(d_value(p, v, side, other), v);
  }
  const auto cut_at = std::min<std::size_t>(static_cast<std::size_t>(window),
                                            out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cut_at),
                    out.end(), std::greater<>());
  out.resize(cut_at);
}

}  // namespace

KlResult kl_refine_bisection(Partition& p, int side_a, int side_b,
                             const KlOptions& options) {
  FFP_CHECK(side_a != side_b, "sides must differ");
  const Graph& g = p.graph();
  KlResult result;
  result.initial_cut = p.edge_cut();

  std::vector<char> locked(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<std::pair<double, VertexId>> cand_a, cand_b;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    for (VertexId v : p.members(side_a)) locked[static_cast<std::size_t>(v)] = 0;
    for (VertexId v : p.members(side_b)) locked[static_cast<std::size_t>(v)] = 0;

    const std::size_t max_swaps =
        std::min(p.members(side_a).size(), p.members(side_b).size());
    std::vector<std::pair<VertexId, VertexId>> sequence;
    sequence.reserve(max_swaps);
    double cumulative = 0.0;
    double best_cumulative = 0.0;
    std::size_t best_prefix = 0;

    for (std::size_t s = 0; s < max_swaps; ++s) {
      top_candidates(p, side_a, side_b, locked, options.candidate_window, cand_a);
      top_candidates(p, side_b, side_a, locked, options.candidate_window, cand_b);
      if (cand_a.empty() || cand_b.empty()) break;

      // Best pair: gain = D(a) + D(b) − 2 w(a,b).
      double best_gain = -std::numeric_limits<double>::infinity();
      VertexId best_va = -1, best_vb = -1;
      for (const auto& [da, va] : cand_a) {
        for (const auto& [db, vb] : cand_b) {
          const double gain = da + db - 2.0 * g.edge_weight(va, vb);
          if (gain > best_gain) {
            best_gain = gain;
            best_va = va;
            best_vb = vb;
          }
        }
      }
      // Tentatively swap.
      p.move(best_va, side_b);
      p.move(best_vb, side_a);
      locked[static_cast<std::size_t>(best_va)] = 1;
      locked[static_cast<std::size_t>(best_vb)] = 1;
      sequence.emplace_back(best_va, best_vb);
      cumulative += best_gain;
      if (cumulative > best_cumulative + 1e-15) {
        best_cumulative = cumulative;
        best_prefix = sequence.size();
      }
    }

    // Roll back beyond the best prefix.
    for (std::size_t i = sequence.size(); i-- > best_prefix;) {
      p.move(sequence[i].first, side_a);
      p.move(sequence[i].second, side_b);
    }
    result.swaps += static_cast<std::int64_t>(best_prefix);
    if (best_cumulative <= options.min_gain_per_pass) break;
  }

  result.final_cut = p.edge_cut();
  return result;
}

double kl_refine_kway(const Graph& g, std::vector<int>& assignment, int k,
                      double max_imbalance, std::uint64_t seed,
                      const KlOptions& options) {
  (void)max_imbalance;  // KL swaps preserve sizes; balance is left intact.
  FFP_CHECK(k >= 2, "k must be >= 2");
  auto p = Partition::from_assignment(g, assignment, k);
  const double before = p.edge_cut();

  Rng rng(seed);
  PartMarkScratch conns;
  const int max_rounds = 4;
  for (int round = 0; round < max_rounds; ++round) {
    double round_gain = 0.0;
    // Sweep connected part pairs in a deterministic shuffled order.
    std::vector<std::pair<int, int>> pairs;
    for (int a : p.nonempty_parts()) {
      p.connections(a, conns);
      for (const int b : conns.marked()) {
        if (b > a) pairs.emplace_back(a, b);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    rng.shuffle(pairs);
    for (const auto& [a, b] : pairs) {
      if (p.part_size(a) == 0 || p.part_size(b) == 0) continue;
      const auto res = kl_refine_bisection(p, a, b, options);
      round_gain += res.initial_cut - res.final_cut;
    }
    if (round_gain <= options.min_gain_per_pass) break;
  }

  std::copy(p.assignment().begin(), p.assignment().end(), assignment.begin());
  return before - p.edge_cut();
}

}  // namespace ffp
