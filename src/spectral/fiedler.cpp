#include "spectral/fiedler.hpp"

#include <cmath>
#include <memory>

#include "linalg/lanczos.hpp"
#include "linalg/operators.hpp"
#include "linalg/rqi.hpp"
#include "multilevel/coarsen.hpp"
#include "spectral/laplacian.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

std::unique_ptr<SymmetricOperator> make_operator(const Graph& g,
                                                 SpectralProblem problem) {
  if (problem == SpectralProblem::Normalized) {
    return std::make_unique<NormalizedLaplacianOperator>(g);
  }
  return std::make_unique<LaplacianOperator>(g);
}

/// Smallest nontrivial eigenpairs via Lanczos with the trivial eigenvector
/// deflated.
FiedlerResult solve_lanczos(const Graph& g, const FiedlerOptions& options) {
  FiedlerResult out;
  const auto op = make_operator(g, options.problem);

  // With the trivial eigenvector deflated, the target pairs sit at the low
  // extreme of the spectrum, where Lanczos with full reorthogonalization
  // converges directly.
  std::vector<std::vector<double>> deflate;
  deflate.push_back(trivial_eigenvector(g, options.problem));

  LanczosOptions lopt;
  lopt.nev = options.count;
  lopt.tolerance = options.tolerance;
  lopt.max_iterations =
      std::max(100, std::min<int>(g.num_vertices(), 40 * options.count + 60));
  lopt.seed = options.seed;
  const auto lres = lanczos_smallest(*op, lopt, deflate);

  out.converged = lres.converged;
  for (const auto& pair : lres.pairs) {
    out.values.push_back(pair.value);
    out.vectors.push_back(pair.vector);
  }
  return out;
}

/// Multilevel RQI: Lanczos on the coarsest graph, prolong, RQI-polish at
/// each finer level.
FiedlerResult solve_multilevel_rqi(const Graph& g,
                                   const FiedlerOptions& options) {
  CoarsenOptions copt;
  copt.min_vertices = std::max(options.coarse_vertices, 4 * options.count + 8);
  copt.seed = options.seed;
  const auto chain = coarsen_chain(g, copt);
  const Graph& coarsest = chain.empty() ? g : chain.back().coarse;

  // Coarse solve (always with Lanczos on the small graph).
  FiedlerOptions base = options;
  base.engine = FiedlerEngine::Lanczos;
  FiedlerResult current = solve_lanczos(coarsest, base);
  if (chain.empty()) return current;

  // Walk back up the chain level by level, carrying all vectors together so
  // each can be deflated against the ones already refined at that level
  // (otherwise RQI would collapse every start vector onto the Fiedler pair).
  FiedlerResult out;
  out.converged = true;
  std::vector<std::vector<double>> vectors = std::move(current.vectors);
  for (std::size_t lvl = chain.size(); lvl-- > 0;) {
    const Graph& fine_graph = lvl == 0 ? g : chain[lvl - 1].coarse;
    const auto op = make_operator(fine_graph, options.problem);

    std::vector<std::vector<double>> deflate;
    deflate.push_back(trivial_eigenvector(fine_graph, options.problem));

    const bool finest = lvl == 0;
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      // One-level piecewise-constant prolongation.
      const std::vector<double> fine = project_level(chain[lvl], vectors[i]);
      RqiOptions ropt;
      ropt.tolerance = options.tolerance;
      ropt.solver_tolerance = std::max(options.tolerance * 0.1, 1e-9);
      auto refined = rqi_refine(*op, fine, ropt, deflate);
      if (finest) {
        out.values.push_back(refined.value);
        out.converged = out.converged && refined.converged;
      }
      deflate.push_back(refined.vector);
      vectors[i] = std::move(refined.vector);
    }
  }
  out.vectors = std::move(vectors);
  return out;
}

}  // namespace

FiedlerResult fiedler_vectors(const Graph& g, const FiedlerOptions& options) {
  FFP_CHECK(g.num_vertices() >= 2, "need at least two vertices");
  FFP_CHECK(options.count >= 1, "count must be >= 1");
  if (options.engine == FiedlerEngine::MultilevelRqi &&
      g.num_vertices() > options.coarse_vertices) {
    return solve_multilevel_rqi(g, options);
  }
  return solve_lanczos(g, options);
}

}  // namespace ffp
