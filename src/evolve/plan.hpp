// The evolve-mode portfolio plan: which of a job's `restarts` start cold,
// which mutate one elite, and which cross two — decided ONCE at submit
// time from an archive snapshot and a splitmix64 stream of the spec seed.
//
// Computing the whole plan up front (instead of letting restart workers
// draw parents as they go) is what keeps the determinism contract: the
// plan is a pure function of (archive state at submit, spec seed,
// restarts), and apply_restart_seed() is a pure function of (plan, graph,
// restart index) — so the portfolio stays byte-identical at any thread
// count, exactly like every prior parallel layer.
//
// Shape, for a population of p elites:
//   * restart 0 always MUTATES the best elite. This is the monotonicity
//     anchor: the FF/mlff warm-start contract guarantees that restart
//     never reports worse than the best archived value, so a sequence of
//     evolve submissions yields non-increasing best cuts.
//   * restart i (i >= 1) cycles CROSSOVER (i%3==1, two distinct parents,
//     needs p >= 2 and an FF-family solver), COLD (i%3==2 — fresh
//     singleton starts keep injecting diversity), MUTATE (i%3==0, a
//     seeded random elite).
//   * an empty population degrades every restart to COLD — evolve mode on
//     a never-seen graph is exactly a plain portfolio.
#pragma once

#include <cstdint>
#include <vector>

#include "evolve/elite_archive.hpp"
#include "graph/graph.hpp"
#include "solver/solver.hpp"

namespace ffp::evolve {

enum class RestartKind { Cold, Mutate, Crossover };

struct RestartPlan {
  RestartKind kind = RestartKind::Cold;
  /// Population indices (best-first order). Mutate uses parent_a;
  /// Crossover uses both, and parent_a is always the BETTER one (lower
  /// index) — the incumbent the offspring must not worsen.
  int parent_a = -1;
  int parent_b = -1;
};

struct EvolvePlan {
  std::vector<Elite> population;  ///< best-first archive snapshot at submit
  std::vector<RestartPlan> restarts;
  int seeded = 0;  ///< restarts that are not Cold
};

/// Builds the plan for one evolve submission. Takes one archive snapshot
/// (counted as a lookup); `allow_crossover` should be true only for
/// solvers whose warm start treats blocks as atoms (fusion_fission — mlff
/// coarsens the overlay away, so it only mutates). Elites whose
/// assignment does not cover `num_vertices` are dropped defensively.
EvolvePlan plan_evolve(EliteArchive& archive, const PopulationKey& key,
                       int restarts, std::uint64_t seed, bool allow_crossover,
                       std::size_t num_vertices);

/// Fills the warm-start/incumbent hooks of `request` for one restart.
/// Thread-safe and pure: reads only the (immutable) plan and graph, so
/// portfolio workers may call it concurrently. Cold restarts leave the
/// request untouched.
void apply_restart_seed(const EvolvePlan& plan, const Graph& g, int restart,
                        SolverRequest& request);

}  // namespace ffp::evolve
