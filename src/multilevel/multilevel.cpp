#include "multilevel/multilevel.hpp"

#include <algorithm>
#include <numeric>

#include "graph/connectivity.hpp"
#include "partition/balance.hpp"
#include "refine/fm_bisection.hpp"
#include "refine/kway_fm.hpp"
#include "spectral/fiedler.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// Greedy growing: BFS from a pseudo-peripheral vertex until side 0 holds
/// `target_fraction` of the vertex weight.
std::vector<int> greedy_grow_bisection(const Graph& g, double target_fraction,
                                       Rng& rng) {
  const VertexId n = g.num_vertices();
  std::vector<int> side(static_cast<std::size_t>(n), 1);
  const double target = g.total_vertex_weight() * target_fraction;
  const VertexId start =
      pseudo_peripheral_pair(g, static_cast<VertexId>(rng.below(
                                    static_cast<std::uint64_t>(n))))
          .first;
  std::vector<VertexId> frontier{start};
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  seen[static_cast<std::size_t>(start)] = 1;
  double acc = 0.0;
  std::size_t head = 0;
  while (acc < target && head < frontier.size()) {
    const VertexId v = frontier[head++];
    if (acc + g.vertex_weight(v) > target && acc > 0.0) continue;
    side[static_cast<std::size_t>(v)] = 0;
    acc += g.vertex_weight(v);
    for (VertexId u : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        frontier.push_back(u);
      }
    }
  }
  // Disconnected leftovers: fill side 0 from unvisited vertices if needed.
  for (VertexId v = 0; acc < target && v < n; ++v) {
    if (side[static_cast<std::size_t>(v)] == 1 &&
        !seen[static_cast<std::size_t>(v)]) {
      side[static_cast<std::size_t>(v)] = 0;
      acc += g.vertex_weight(v);
    }
  }
  // Guarantee both sides non-empty.
  const auto count0 = std::count(side.begin(), side.end(), 0);
  if (count0 == 0) side[0] = 0;
  if (count0 == n) side[static_cast<std::size_t>(n - 1)] = 1;
  return side;
}

std::vector<int> initial_bisection(const Graph& g, double target_fraction,
                                   const MultilevelOptions& options,
                                   std::uint64_t seed) {
  if (g.num_vertices() < 2) {
    return std::vector<int>(static_cast<std::size_t>(g.num_vertices()), 0);
  }
  if (options.initial == InitialPartitioner::SpectralBisection) {
    FiedlerOptions fopt;
    fopt.engine = FiedlerEngine::Lanczos;
    fopt.count = 1;
    fopt.seed = seed;
    const auto fres = fiedler_vectors(g, fopt);
    if (!fres.vectors.empty()) {
      // Weighted split at the target fraction along the Fiedler order.
      std::vector<VertexId> order(static_cast<std::size_t>(g.num_vertices()));
      std::iota(order.begin(), order.end(), 0);
      const auto& f = fres.vectors[0];
      std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        const double va = f[static_cast<std::size_t>(a)];
        const double vb = f[static_cast<std::size_t>(b)];
        return va != vb ? va < vb : a < b;
      });
      std::vector<int> side(static_cast<std::size_t>(g.num_vertices()), 1);
      const double target = g.total_vertex_weight() * target_fraction;
      double acc = 0.0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && acc >= target) break;
        acc += g.vertex_weight(order[i]);
        side[static_cast<std::size_t>(order[i])] = 0;
      }
      if (std::count(side.begin(), side.end(), 1) == 0) {
        side[static_cast<std::size_t>(order.back())] = 1;
      }
      return side;
    }
  }
  Rng rng(seed);
  return greedy_grow_bisection(g, target_fraction, rng);
}

}  // namespace

std::vector<int> multilevel_bisect(const Graph& g, double target_fraction,
                                   const MultilevelOptions& options,
                                   std::uint64_t seed) {
  FFP_CHECK(target_fraction > 0.0 && target_fraction < 1.0,
            "target fraction must be in (0,1)");
  if (g.num_vertices() < 2) {
    return std::vector<int>(static_cast<std::size_t>(g.num_vertices()), 0);
  }

  CoarsenOptions copt;
  copt.min_vertices = options.coarsest_vertices;
  copt.seed = seed;
  const auto chain = coarsen_chain(g, copt);
  const Graph& coarsest = chain.empty() ? g : chain.back().coarse;

  std::vector<int> side =
      initial_bisection(coarsest, target_fraction, options, mix_seed(seed, 1));

  FmOptions fm;
  // Side 0 is grown to target_fraction by the initial partitioners; FM's
  // per-side caps then hold both sides to their shares (± the user slack)
  // through every level's refinement, instead of letting the cut chase
  // wander anywhere a symmetric band twice the majority share would allow.
  fm.max_imbalance = options.max_imbalance;
  fm.target_fraction_a = target_fraction;

  {  // refine the coarsest level too
    auto p = Partition::from_assignment(coarsest, side, 2);
    fm_refine_bisection(p, 0, 1, fm);
    std::copy(p.assignment().begin(), p.assignment().end(), side.begin());
  }

  // Project through the chain with per-level FM refinement.
  for (std::size_t lvl = chain.size(); lvl-- > 0;) {
    const Graph& fine_graph = lvl == 0 ? g : chain[lvl - 1].coarse;
    auto p = Partition::from_assignment(fine_graph,
                                        project_level(chain[lvl], side), 2);
    fm_refine_bisection(p, 0, 1, fm);
    side.assign(p.assignment().begin(), p.assignment().end());
  }
  return side;
}

namespace {

/// Recursive division into k parts with weight-proportional targets.
void divide(const Graph& parent, std::vector<VertexId> vertices, int k,
            int offset, const MultilevelOptions& options, std::uint64_t seed,
            std::vector<int>& out) {
  if (k == 1) {
    for (VertexId v : vertices) out[static_cast<std::size_t>(v)] = offset;
    return;
  }
  const auto sub = induced_subgraph(parent, vertices);

  // Octasection rows divide by 8 while possible (then 4/2); bisection rows
  // always divide by 2. Division counts must divide k's factor tree only
  // loosely — we split k into near halves (or eighths) weight-proportionally.
  int ways = 2;
  if (options.arity == SectionArity::Octasection && k >= 8 &&
      sub.graph.num_vertices() >= 16) {
    ways = 8;
  } else if (static_cast<int>(options.arity) >= 4 && k >= 4 &&
             sub.graph.num_vertices() >= 8) {
    ways = 4;
  }

  if (ways == 2) {
    const int k0 = k / 2;
    const double frac = static_cast<double>(k0) / k;
    const auto side =
        multilevel_bisect(sub.graph, frac, options, mix_seed(seed, 2));
    std::vector<VertexId> left, right;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      (side[i] == 0 ? left : right).push_back(vertices[i]);
    }
    divide(parent, std::move(left), k0, offset, options, mix_seed(seed, 3), out);
    divide(parent, std::move(right), k - k0, offset + k0, options,
           mix_seed(seed, 4), out);
    return;
  }

  // 4/8-way step: spectral section on the coarsened subgraph, then recurse
  // into each cell with k split as evenly as possible.
  CoarsenOptions copt;
  copt.min_vertices = std::max(options.coarsest_vertices, 6 * ways);
  copt.seed = mix_seed(seed, 5);
  const auto chain = coarsen_chain(sub.graph, copt);
  const Graph& coarsest = chain.empty() ? sub.graph : chain.back().coarse;

  FiedlerOptions fopt;
  fopt.count = ways == 8 ? 3 : 2;
  fopt.seed = mix_seed(seed, 6);
  const auto fres = fiedler_vectors(coarsest, fopt);

  std::vector<int> cells;
  if (static_cast<int>(fres.vectors.size()) >= fopt.count) {
    cells = sign_section(
        coarsest,
        std::span<const std::vector<double>>(
            fres.vectors.data(), static_cast<std::size_t>(fopt.count)),
        options.max_imbalance, mix_seed(seed, 7));
  } else {
    cells.assign(static_cast<std::size_t>(coarsest.num_vertices()), 0);
  }

  // Project cells to the subgraph's finest level with k-way FM per level.
  Rng rng(mix_seed(seed, 8));
  {
    auto p = Partition::from_assignment(coarsest, cells, ways);
    KwayFmOptions kopt;
    kopt.max_imbalance = options.max_imbalance;
    kway_fm_refine(p, objective(ObjectiveKind::Cut), kopt, rng);
    cells.assign(p.assignment().begin(), p.assignment().end());
  }
  std::vector<int> current = std::move(cells);
  for (std::size_t lvl = chain.size(); lvl-- > 0;) {
    const Graph& fine_graph = lvl == 0 ? sub.graph : chain[lvl - 1].coarse;
    auto p = Partition::from_assignment(
        fine_graph, project_level(chain[lvl], current), ways);
    KwayFmOptions kopt;
    kopt.max_imbalance = options.max_imbalance;
    kway_fm_refine(p, objective(ObjectiveKind::Cut), kopt, rng);
    current.assign(p.assignment().begin(), p.assignment().end());
  }

  // Distribute k across the cells and recurse.
  std::vector<std::vector<VertexId>> groups(static_cast<std::size_t>(ways));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    groups[static_cast<std::size_t>(current[i])].push_back(vertices[i]);
  }
  int remaining_k = k;
  int used_offset = offset;
  for (int c = 0; c < ways; ++c) {
    const int cells_left = ways - c;
    int kc = (remaining_k + cells_left - 1) / cells_left;  // ceil split
    kc = std::max(1, std::min(kc, remaining_k - (cells_left - 1)));
    auto& grp = groups[static_cast<std::size_t>(c)];
    if (grp.empty()) {
      // Empty cell: its share folds into the remaining cells.
      continue;
    }
    kc = std::min(kc, static_cast<int>(grp.size()));
    divide(parent, std::move(grp), kc, used_offset, options,
           mix_seed(seed, 100 + static_cast<std::uint64_t>(c)), out);
    used_offset += kc;
    remaining_k -= kc;
  }
  FFP_CHECK(remaining_k >= 0, "k distribution underflow");
}

}  // namespace

Partition multilevel_partition(const Graph& g, int k,
                               const MultilevelOptions& options) {
  FFP_CHECK(k >= 1, "k must be >= 1");
  FFP_CHECK(g.num_vertices() >= k, "graph has fewer vertices than parts");

  std::vector<int> assignment(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<VertexId> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  divide(g, std::move(all), k, 0, options, options.seed, assignment);

  auto p = Partition::from_assignment(g, assignment, k);

  // Degenerate-case fixup: the 4/8-way division can leave part ids unused
  // when cells come out empty on tiny subgraphs.
  force_k_nonempty(p, k);

  if (options.final_kway_refine) {
    Rng rng(mix_seed(options.seed, 999));
    KwayFmOptions kopt;
    kopt.max_imbalance = options.max_imbalance * 1.05;
    kway_fm_refine(p, objective(ObjectiveKind::Cut), kopt, rng);
  }
  return p;
}

}  // namespace ffp
