// Graph coarsening (§2.2, Hendrickson–Leland / Karypis–Kumar style):
// contract a matching — the merged vertex weight is the sum of the pair's
// weights, and edges to common neighbors combine by summing weights, exactly
// as the paper describes the Chaco contraction step.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "multilevel/matching.hpp"
#include "util/check.hpp"

namespace ffp {

/// One coarsening level: the coarse graph plus the fine→coarse map.
struct CoarseLevel {
  Graph coarse;
  std::vector<VertexId> fine_to_coarse;  ///< indexed by fine vertex id
};

/// Contract the given matching of g (symmetric: match[match[v]] == v, and
/// match[v] == v leaves v unmatched). Coarse vertices are numbered in order
/// of their lowest fine vertex. A coarse edge's weight is the sum of the
/// fine edges it folds, added in (lower fine endpoint, higher fine
/// endpoint) order, so its bits are fixed even for real weights, where
/// another order would round differently. O(n + m) before the CSR build,
/// with no hashing.
CoarseLevel contract_matching(const Graph& g, std::span<const VertexId> match);

enum class MatchingKind { HeavyEdge, Random };

struct CoarsenOptions {
  int min_vertices = 64;        ///< stop when the coarse graph is this small
  double min_shrink = 0.95;     ///< stop if a level shrinks less than this factor
  int max_levels = 60;
  MatchingKind matching = MatchingKind::HeavyEdge;
  std::uint64_t seed = 1;
};

/// Coarsening chain: levels[0] contracts the input graph, levels[i]
/// contracts levels[i-1].coarse. May be empty if g is already small.
std::vector<CoarseLevel> coarsen_chain(const Graph& g,
                                       const CoarsenOptions& options);

/// One level's projection: every fine vertex of `level` takes the value
/// of its coarse image — part ids, or piecewise-constant interpolation of
/// a vector. The one `fine_to_coarse` walk every multilevel scheme uses.
template <typename T>
std::vector<T> project_level(const CoarseLevel& level,
                             const std::vector<T>& coarse) {
  FFP_CHECK(coarse.size() ==
                static_cast<std::size_t>(level.coarse.num_vertices()),
            "projection input has ", coarse.size(), " entries, level has ",
            level.coarse.num_vertices(), " coarse vertices");
  const auto& map = level.fine_to_coarse;
  std::vector<T> fine(map.size());
  for (std::size_t v = 0; v < map.size(); ++v) {
    fine[v] = coarse[static_cast<std::size_t>(map[v])];
  }
  return fine;
}

/// Projects a per-coarse-vertex part assignment back to the finest level
/// through a chain prefix [0, levels): every fine vertex inherits the part
/// of its coarse image. Identity when levels == 0. Because contraction sums
/// pair weights and combines parallel edges, the projected partition has
/// the same part vertex-weights and the same cut weight as the coarse one.
std::vector<int> project_partition(const std::vector<CoarseLevel>& chain,
                                   std::size_t levels,
                                   std::span<const int> coarse_parts);

/// Projects a per-coarse-vertex value vector back to the finest level
/// through a chain prefix [0, levels): piecewise-constant interpolation.
std::vector<double> prolong_to_finest(const std::vector<CoarseLevel>& chain,
                                      std::size_t levels,
                                      std::span<const double> coarse_values);

}  // namespace ffp
