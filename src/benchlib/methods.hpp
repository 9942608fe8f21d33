// The Table-1 method registry: every row of the paper's comparison, as a
// uniform callable. Chaco-family rows (linear / spectral / multilevel /
// percolation) are deterministic Cut minimizers evaluated under all three
// criteria; metaheuristic rows take a time budget and optimize the
// requested criterion directly (the Table-1 protocol, README "Reproducing
// the paper").
//
// Every row is built from the solver registry (solver/registry.hpp): a row
// is a paper label plus a registry spec string, so the construction logic
// lives in exactly one place and `ffp_part --method <row>` and the benches
// run the identical solver. A row runs as one facade solve: the caller
// fills an api::SolveSpec (k, objective, seed, budget) and the row sets
// its method. Spectral/multilevel rows carry the final k-way greedy
// refinement — the analog of Chaco's REFINE_PARTITION, which the paper
// enables ("we use the REFINE PARTITION parameter which increases
// considerably the quality of results"); "KL" rows additionally refine
// inside the recursion.
#pragma once

#include <string>
#include <vector>

#include "api/solve_spec.hpp"
#include "graph/graph.hpp"
#include "metaheuristics/anytime.hpp"
#include "partition/partition.hpp"

namespace ffp {

struct MethodSpec {
  std::string name;           ///< the paper's row label
  std::string solver_spec;    ///< registry spec this row is built from
  bool is_metaheuristic;      ///< true: budgeted + objective-aware

  /// Solves `g` under `spec` with spec.method replaced by this row's
  /// registry spec. The recorder, when given, is started and then fed
  /// every improvement.
  Partition run(const Graph& g, api::SolveSpec spec,
                AnytimeRecorder* recorder = nullptr) const;
};

/// All 17 rows of Table 1, in the paper's order.
std::vector<MethodSpec> table1_methods();

/// Look up a single row by its label (throws if unknown).
const MethodSpec& method_by_name(const std::vector<MethodSpec>& methods,
                                 const std::string& name);

/// The registry spec behind a Table-1 row label (throws if unknown) — lets
/// tools accept either paper labels or raw registry specs.
std::string table1_spec(const std::string& name);

}  // namespace ffp
