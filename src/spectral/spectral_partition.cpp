#include "spectral/spectral_partition.hpp"

#include <algorithm>
#include <numeric>

#include "graph/connectivity.hpp"
#include "partition/balance.hpp"
#include "refine/kl_bisection.hpp"
#include "util/check.hpp"

namespace ffp {

std::vector<int> median_split(const Graph& g, std::span<const double> values) {
  const VertexId n = g.num_vertices();
  FFP_CHECK(static_cast<VertexId>(values.size()) == n, "values size mismatch");
  FFP_CHECK(n >= 2, "cannot bisect fewer than two vertices");

  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const double va = values[static_cast<std::size_t>(a)];
    const double vb = values[static_cast<std::size_t>(b)];
    return va != vb ? va < vb : a < b;  // deterministic tiebreak
  });

  const double half = g.total_vertex_weight() / 2.0;
  std::vector<int> side(static_cast<std::size_t>(n), 1);
  double acc = 0.0;
  std::size_t i = 0;
  for (; i < order.size(); ++i) {
    const double w = g.vertex_weight(order[i]);
    // Stop before crossing the midpoint unless the side is still empty.
    if (i > 0 && acc + w > half) break;
    acc += w;
    side[static_cast<std::size_t>(order[i])] = 0;
  }
  if (i == order.size()) {  // degenerate weights: keep last vertex on side 1
    side[static_cast<std::size_t>(order.back())] = 1;
  }
  return side;
}

std::vector<int> sign_section(const Graph& g,
                              std::span<const std::vector<double>> vectors,
                              double max_imbalance, std::uint64_t seed) {
  FFP_CHECK(!vectors.empty() && vectors.size() <= 3,
            "sign_section takes 1..3 eigenvectors");
  const VertexId n = g.num_vertices();
  const int k = 1 << vectors.size();
  std::vector<int> cell(static_cast<std::size_t>(n), 0);
  for (std::size_t d = 0; d < vectors.size(); ++d) {
    FFP_CHECK(static_cast<VertexId>(vectors[d].size()) == n,
              "eigenvector size mismatch");
    // Split dimension d at its weighted median rather than at zero: the
    // median is what keeps cells balanced when an eigenvector is skewed.
    const auto split = median_split(g, vectors[d]);
    for (VertexId v = 0; v < n; ++v) {
      cell[static_cast<std::size_t>(v)] |=
          split[static_cast<std::size_t>(v)] << d;
    }
  }
  auto part = Partition::from_assignment(g, cell, k);
  Rng rng(seed);
  rebalance(part, k, max_imbalance, rng);
  return {part.assignment().begin(), part.assignment().end()};
}

namespace {

/// Recursively partitions the subgraph induced by `vertices` into k parts,
/// writing part ids offset..offset+k-1 into `out`.
void recurse(const Graph& parent, std::vector<VertexId> vertices, int k,
             int offset, const SpectralOptions& options, std::uint64_t seed,
             std::vector<int>& out) {
  if (k == 1 || vertices.size() <= 1) {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      out[static_cast<std::size_t>(vertices[i])] =
          offset + static_cast<int>(i % static_cast<std::size_t>(k));
    }
    return;
  }
  const auto sub = induced_subgraph(parent, vertices);

  // Pick the widest section arity that divides k and fits the subgraph.
  int arity = std::min(static_cast<int>(options.arity), k);
  while (arity > 2 && (k % arity != 0 ||
                       sub.graph.num_vertices() < 2 * arity)) {
    arity /= 2;
  }
  if (sub.graph.num_vertices() < 2) arity = std::min(arity, 2);

  const int dims = arity == 8 ? 3 : arity == 4 ? 2 : 1;

  FiedlerOptions fopt;
  fopt.engine = options.engine;
  fopt.problem = options.problem;
  fopt.count = dims;
  fopt.tolerance = options.tolerance;
  fopt.seed = seed;
  const auto fres = fiedler_vectors(sub.graph, fopt);
  FFP_CHECK(static_cast<int>(fres.vectors.size()) >= 1,
            "spectral solve produced no eigenvector");

  // Fall back to plain bisection if the eigensolver produced fewer vectors
  // than the requested section needs.
  const int actual_dims =
      static_cast<int>(fres.vectors.size()) >= dims ? dims : 1;
  std::vector<int> local;
  if (actual_dims == 1) {
    local = median_split(sub.graph, fres.vectors[0]);
  } else {
    local = sign_section(
        sub.graph,
        std::span<const std::vector<double>>(
            fres.vectors.data(), static_cast<std::size_t>(actual_dims)),
        options.max_imbalance, seed ^ 0x5bd1e995);
  }
  const int actual = 1 << actual_dims;

  if (options.kl_refine) {
    kl_refine_kway(sub.graph, local, actual, options.max_imbalance,
                   seed ^ 0x9e3779b9);
  }

  // Gather each section's vertices (in parent ids) and recurse.
  const int per_section = k / actual;
  std::vector<std::vector<VertexId>> groups(static_cast<std::size_t>(actual));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    int s = local[i];
    if (s >= actual) s = actual - 1;  // rebalance may have used fewer cells
    groups[static_cast<std::size_t>(s)].push_back(vertices[i]);
  }
  for (int s = 0; s < actual; ++s) {
    recurse(parent, std::move(groups[static_cast<std::size_t>(s)]),
            per_section, offset + s * per_section, options,
            mix_seed(seed, static_cast<std::uint64_t>(s)), out);
  }
}

}  // namespace

Partition spectral_partition(const Graph& g, int k,
                             const SpectralOptions& options) {
  FFP_CHECK(k >= 1, "k must be >= 1");
  FFP_CHECK((k & (k - 1)) == 0,
            "spectral partitioning requires k to be a power of two (got ", k,
            "); the paper notes it is not appropriate otherwise");
  FFP_CHECK(g.num_vertices() >= k, "graph has fewer vertices than parts");

  std::vector<int> assignment(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<VertexId> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  recurse(g, std::move(all), k, 0, options, options.seed, assignment);
  auto p = Partition::from_assignment(g, assignment, k);
  // Degenerate subgraphs can starve a section of its part ids; repair.
  force_k_nonempty(p, k);
  return p;
}

}  // namespace ffp
