// Generality sweep over Walshaw-archive-style graph families (§1 motivates
// partitioning for FE meshes, VLSI, clustering). The archive itself is not
// shipped; the generators reproduce its structural families at laptop scale.
//
// Comparison criterion: Mcut (the paper's application criterion) — ratio
// objectives keep the metaheuristics honest, whereas unconstrained Cut
// minimization degenerates into one giant part plus splinters. Imbalance is
// reported alongside. All three columns are solver-registry runs driven by
// one shared request.
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/budget.hpp"
#include "ffp/api.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "partition/balance.hpp"

namespace {

/// Chung–Lu graphs come out disconnected; splitting off whole components is
/// a trivial Mcut optimum, so benchmark on the giant component instead.
ffp::Graph largest_component(const ffp::Graph& g) {
  const auto comps = ffp::connected_components(g);
  if (comps.count <= 1) return g;
  auto groups = comps.groups();
  std::size_t best = 0;
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (groups[i].size() > groups[best].size()) best = i;
  }
  return ffp::induced_subgraph(g, groups[best]).graph;
}

}  // namespace

int main() {
  using namespace ffp;
  const double budget = table_budget_ms();
  const int k = 8;

  std::printf("=== Walshaw-style families: Mcut at k=%d "
              "(FF/SA budget %.1fs) ===\n\n",
              k, budget / 1000.0);

  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"grid 40x25 (FE mesh)", make_grid2d(40, 25)});
  cases.push_back({"grid3d 12x10x8", make_grid3d(12, 10, 8)});
  cases.push_back({"torus 32x32", make_torus(32, 32)});
  cases.push_back({"geometric n=1000", make_random_geometric(1000, 0.055, 3)});
  cases.push_back({"power-law (giant comp)",
                   largest_component(make_power_law(1000, 6.0, 2.5, 5))});
  cases.push_back(
      {"weighted grid 30x30", with_random_weights(make_grid2d(30, 30), 1.0,
                                                  9.0, 7)});

  const auto& mcut = objective(ObjectiveKind::MinMaxCut);
  std::printf("%-22s %10s | %18s %18s %18s\n", "graph", "n/m",
              "multilevel", "annealing", "fusion-fission");
  for (const auto& c : cases) {
    // One facade spec, three methods: the same pipeline every tool runs.
    const api::Problem problem = api::Problem::viewing(c.graph);
    api::SolveSpec spec;
    spec.k = k;
    spec.objective = ObjectiveKind::MinMaxCut;
    spec.budget_ms = budget;
    spec.seed = bench_seed();
    auto& engine = api::Engine::shared();

    spec.method = "multilevel";
    const auto ml = engine.solve(problem, spec);
    spec.method = "annealing";
    const auto sa = engine.solve(problem, spec);
    spec.method = "fusion_fission";
    const auto ff = engine.solve(problem, spec);

    std::printf(
        "%-22s %4d/%-6lld | %9.3f (i%4.2f) %9.3f (i%4.2f) %9.3f (i%4.2f)\n",
        c.name.c_str(), c.graph.num_vertices(),
        static_cast<long long>(c.graph.num_edges()), mcut.evaluate(ml.best),
        imbalance(ml.best, k), sa.best_value, imbalance(sa.best, k),
        ff.best_value, imbalance(ff.best, k));
  }
  std::printf("\nshape check: multilevel is excellent on its home-turf mesh "
              "instances even under\nMcut; the metaheuristics are "
              "competitive everywhere and win where structure is\n"
              "irregular — the paper's generality argument.\n");
  return 0;
}
