#include "multilevel/coarsen.hpp"

#include <algorithm>
#include <limits>

namespace ffp {

namespace {

/// The coarse edges of g under `fine_to_coarse` (next coarse vertices),
/// each weight the sum of its fine edges in scan order: v ascending, then
/// v's neighbors ascending. Three passes and no hashing. The cross edges
/// (v < u, ends in different coarse vertices) are counted per lower coarse
/// endpoint, then scattered into those buckets in scan order, and each
/// bucket is folded through a dense slot array, so every coarse edge adds
/// the same terms in the same order as one running sum per edge over the
/// scan would. Floating-point addition is not associative, so that order is
/// what keeps the weights' bits. The edges themselves come out in bucket
/// order, which does not matter: Graph::from_edges sorts every row. The
/// buckets are freed here, before the caller builds the graph.
std::vector<WeightedEdge> coarse_edges(
    const Graph& g, const std::vector<VertexId>& fine_to_coarse,
    VertexId next) {
  const auto nc = static_cast<std::size_t>(next);
  const auto coarse_of = [&fine_to_coarse](VertexId v) {
    return fine_to_coarse[static_cast<std::size_t>(v)];
  };
  std::vector<ArcId> start(nc + 1, 0);  // bucket c is [start[c], start[c+1])
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId cv = coarse_of(v);
    for (const VertexId u : g.neighbors(v)) {
      const VertexId cu = coarse_of(u);
      if (u < v || cu == cv) continue;  // seen from u, or a self-loop
      ++start[static_cast<std::size_t>(std::min(cv, cu)) + 1];
    }
  }
  for (std::size_t c = 0; c < nc; ++c) start[c + 1] += start[c];

  std::vector<VertexId> hi(static_cast<std::size_t>(start[nc]));
  std::vector<Weight> term(hi.size());
  std::vector<ArcId> fill(start.begin(), start.end() - 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId cv = coarse_of(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId cu = coarse_of(nbrs[i]);
      if (nbrs[i] < v || cu == cv) continue;
      const auto t = static_cast<std::size_t>(
          fill[static_cast<std::size_t>(std::min(cv, cu))]++);
      hi[t] = std::max(cv, cu);
      term[t] = ws[i];
    }
  }

  // slot[h] indexes the edge (c, h) while bucket c folds. An index left by
  // an earlier bucket lies below `first`, so no slot needs clearing.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<WeightedEdge> edges;
  std::vector<std::size_t> slot(nc, kNone);
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t first = edges.size();
    for (auto t = static_cast<std::size_t>(start[c]);
         t < static_cast<std::size_t>(start[c + 1]); ++t) {
      std::size_t& e = slot[static_cast<std::size_t>(hi[t])];
      if (e == kNone || e < first) {
        e = edges.size();
        edges.push_back({static_cast<VertexId>(c), hi[t], 0.0});
      }
      edges[e].w += term[t];
    }
  }
  return edges;
}

}  // namespace

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

  level.coarse = Graph::from_edges(
      next, coarse_edges(g, level.fine_to_coarse, next), std::move(cvw));
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
