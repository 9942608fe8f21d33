// Reproduction of Table 1 (§6): every method on the core-area graph,
// k = 32, under the three criteria (Cut/1000, Ncut, Mcut).
//
// Protocol (README, "Reproducing the paper"): Chaco-family rows minimize
// Cut once; metaheuristic rows run once optimizing Mcut (§5 — "the
// appropriate objective function to use is Mcut") with a wall-clock budget
// (FFP_BENCH_BUDGET_MS, default 6000 ms — the paper gave them tens of
// minutes on a 2006 Pentium 4, so absolute values differ; the *ordering*
// is the result). Every row's single partition is evaluated under all
// three criteria, which reproduces the paper's structure: a Cut-optimized
// metaheuristic without balance constraints would collapse into a
// degenerate low-cut partition no Chaco-style tool would emit.
//
// The paper's own numbers are printed alongside for shape comparison.
#include <cstdio>
#include <iostream>

#include "atc/core_area.hpp"
#include "benchlib/budget.hpp"
#include "benchlib/methods.hpp"
#include "benchlib/table.hpp"
#include "partition/balance.hpp"
#include "util/timer.hpp"

namespace {

struct PaperRow {
  const char* name;
  double cut, ncut, mcut;  // as printed in the paper (cut already /1000)
};

// Table 1 of the paper, verbatim.
constexpr PaperRow kPaperRows[] = {
    {"Linear (Bi)", 274.2, 30.12, 2300.85},
    {"Linear (Bi, KL)", 210.4, 23.35, 89.09},
    {"Linear (Oct, KL)", 216.5, 23.97, 105.16},
    {"Spectral (Lanc, Bi)", 202.0, 22.62, 81.38},
    {"Spectral (Lanc, Bi, KL)", 202.7, 22.62, 120.29},
    {"Spectral (Lanc, Oct)", 201.0, 22.56, 89.89},
    {"Spectral (Lanc, Oct, KL)", 203.1, 22.88, 88.18},
    {"Spectral (RQI, Bi)", 203.2, 22.58, 79.58},
    {"Spectral (RQI, Bi, KL)", 203.0, 22.47, 77.80},
    {"Spectral (RQI, Oct)", 201.6, 22.47, 78.02},
    {"Spectral (RQI, Oct, KL)", 202.4, 22.31, 75.45},
    {"Multilevel (Bi)", 202.1, 22.42, 76.93},
    {"Multilevel (Oct)", 201.7, 22.49, 78.84},
    {"Percolation", 213.7, 23.72, 96.87},
    {"Simulated annealing", 203.9, 22.34, 74.44},
    {"Ant colony", 203.3, 22.30, 74.22},
    {"Fusion Fission", 198.0, 21.83, 69.03},
};

double evaluate(const ffp::Partition& p, ffp::ObjectiveKind kind) {
  return ffp::objective(kind).evaluate(p);
}

}  // namespace

int main() {
  using namespace ffp;
  const double budget = table_budget_ms();
  const std::uint64_t seed = bench_seed();

  std::printf("=== Table 1: comparisons between algorithms ===\n");
  std::printf("graph: synthetic country core area (762 vertices, 3165 "
              "edges); k = 32\n");
  std::printf("metaheuristic budget: %.0f ms per run per criterion "
              "(FFP_BENCH_BUDGET_MS)\n\n",
              budget);

  const auto core = make_core_area_graph();
  const auto methods = table1_methods();

  AsciiTable table({"Method", "Cut/1000", "Ncut", "Mcut", "imb", "sec",
                    "paper Cut", "paper Ncut", "paper Mcut"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& m = methods[i];
    api::SolveSpec spec;
    spec.k = 32;
    spec.seed = seed;
    spec.objective = ObjectiveKind::MinMaxCut;  // metaheuristic rows only
    spec.budget_ms = budget;
    Partition p(core.graph, 1);
    // One shared clock path (util/timer.hpp) for every reported duration,
    // so this table agrees with the perf-suite JSON.
    const double seconds = timed_seconds([&] { p = m.run(core.graph, spec); });
    const double cut = evaluate(p, ObjectiveKind::Cut) / 1000.0;
    const double ncut = evaluate(p, ObjectiveKind::NormalizedCut);
    const double mcut = evaluate(p, ObjectiveKind::MinMaxCut);
    const double imb = imbalance(p, 32);
    table.add_row({m.name, fmt1(cut), fmt2(ncut), fmt2(mcut), fmt2(imb),
                   fmt2(seconds), fmt1(kPaperRows[i].cut),
                   fmt2(kPaperRows[i].ncut), fmt2(kPaperRows[i].mcut)});
  }
  table.print(std::cout);

  std::printf("\nshape checks (paper §6):\n");
  std::printf("  - Fusion Fission should lead every criterion among "
              "metaheuristics;\n");
  std::printf("  - metaheuristics should lead Mcut overall; spectral/"
              "multilevel lead Cut among the fast tools;\n");
  std::printf("  - Percolation and Linear (Bi) should trail on the ratio "
              "criteria.\n");
  std::printf("\nabsolute values are not comparable to the paper's: the "
              "graph is a synthetic\nsubstitute for proprietary ENAC data "
              "and budgets are seconds, not tens of\nminutes (see "
              "README, \"Reproducing the paper\").\n");
  return 0;
}
