#include "multilevel/coarsen.hpp"

#include <unordered_map>

namespace ffp {

CoarseLevel contract_matching(const Graph& g, std::span<const VertexId> match) {
  const VertexId n = g.num_vertices();
  FFP_CHECK(static_cast<VertexId>(match.size()) == n, "match size mismatch");

  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId m = match[static_cast<std::size_t>(v)];
    FFP_CHECK(m >= 0 && m < n && match[static_cast<std::size_t>(m)] == v,
              "matching is not symmetric at vertex ", v);
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    level.fine_to_coarse[static_cast<std::size_t>(v)] = next;
    if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }

  std::vector<Weight> cvw(static_cast<std::size_t>(next), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    cvw[static_cast<std::size_t>(level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }

  // Combine fine edges into coarse edges, summing weights of parallels.
  std::unordered_map<std::int64_t, Weight> acc;
  acc.reserve(static_cast<std::size_t>(g.num_edges()));
  for (VertexId v = 0; v < n; ++v) {
    const VertexId cv = level.fine_to_coarse[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId cu = level.fine_to_coarse[static_cast<std::size_t>(nbrs[i])];
      if (cu == cv || nbrs[i] < v) continue;  // self-loop or already counted
      const std::int64_t key =
          static_cast<std::int64_t>(std::min(cv, cu)) * next + std::max(cv, cu);
      acc[key] += ws[i];
    }
  }
  std::vector<WeightedEdge> edges;
  edges.reserve(acc.size());
  for (const auto& [key, w] : acc) {
    edges.push_back({static_cast<VertexId>(key / next),
                     static_cast<VertexId>(key % next), w});
  }
  level.coarse = Graph::from_edges(next, edges, std::move(cvw));
  return level;
}

std::vector<CoarseLevel> coarsen_chain(const Graph& g,
                                       const CoarsenOptions& options) {
  FFP_CHECK(options.min_vertices >= 2, "min_vertices must be >= 2");
  FFP_CHECK(options.min_shrink > 0.0 && options.min_shrink < 1.0,
            "min_shrink must be in (0, 1) — a level that does not shrink "
            "must terminate the chain");
  FFP_CHECK(options.max_levels >= 1, "max_levels must be >= 1");
  // Per-level seeds come from one splitmix64 stream (the idiom every other
  // subsystem uses to derive child streams), not from one Rng threaded
  // through the levels: level i's matching then depends only on (seed, i),
  // never on how many draws earlier levels consumed.
  std::uint64_t stream = options.seed ^ 0x9e3779b97f4a7c15ULL;
  std::vector<CoarseLevel> chain;
  const Graph* current = &g;
  for (int lvl = 0; lvl < options.max_levels; ++lvl) {
    if (current->num_vertices() <= options.min_vertices) break;
    Rng rng(splitmix64(stream));
    const auto match = options.matching == MatchingKind::HeavyEdge
                           ? heavy_edge_matching(*current, rng)
                           : random_matching(*current, rng);
    CoarseLevel level = contract_matching(*current, match);
    const double shrink = static_cast<double>(level.coarse.num_vertices()) /
                          current->num_vertices();
    if (shrink > options.min_shrink) break;  // matching stalled (e.g. star)
    FFP_CHECK(level.coarse.num_vertices() < current->num_vertices(),
              "coarsening level made no progress");
    chain.push_back(std::move(level));
    current = &chain.back().coarse;
  }
  return chain;
}

std::vector<int> project_partition(const std::vector<CoarseLevel>& chain,
                                   std::size_t levels,
                                   std::span<const int> coarse_parts) {
  FFP_CHECK(levels <= chain.size(), "levels out of range");
  std::vector<int> parts(coarse_parts.begin(), coarse_parts.end());
  for (std::size_t l = levels; l-- > 0;) parts = project_level(chain[l], parts);
  return parts;
}

std::vector<double> prolong_to_finest(const std::vector<CoarseLevel>& chain,
                                      std::size_t levels,
                                      std::span<const double> coarse_values) {
  FFP_CHECK(levels <= chain.size(), "levels out of range");
  std::vector<double> values(coarse_values.begin(), coarse_values.end());
  for (std::size_t l = levels; l-- > 0;) {
    values = project_level(chain[l], values);
  }
  return values;
}

}  // namespace ffp
