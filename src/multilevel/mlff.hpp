// Multilevel × fusion-fission hybrid (`mlff`) — the scale path. The paper's
// Algorithm 1 starts from singleton atoms on the full graph, which is
// hopeless at n ≫ 10⁵; the memetic-multilevel recipe runs the expensive
// metaheuristic where it is cheap and keeps the fine levels for local
// repair:
//
//   1. coarsen_chain (multilevel/coarsen.hpp) shrinks the graph to
//      ~coarse_n vertices (default max(k·64, n/64));
//   2. full fusion-fission (core/fusion_fission.hpp) partitions the
//      coarsest graph under the caller's stop condition;
//   3. project_partition maps the atoms back level by level; after each
//      projection a boundary-localized refinement burst (strictly
//      improving single-vertex moves under the ObjectiveTracker) repairs
//      the cut, with a step budget that starts at refine_steps on the
//      coarsest projection and halves toward the fine levels.
//
// Every stage draws from seeds derived off one splitmix64 stream of
// MlffOptions::seed and runs serially, so the result is a pure function of
// (graph, k, options, step budget, hooks).
//
// The run's RunHooks (metaheuristics/anytime.hpp) live on the INPUT graph,
// and mlff maps them across the chain:
//   * a warm start is projected DOWN to seed the coarse FF phase (each
//     coarse vertex takes its first fine constituent's part), and a final
//     keep-better guard makes the result never worse than the restored
//     partition's objective;
//   * checkpoints flow UP: the coarse phase's best-at-k is projected up
//     the chain, evaluated on the input graph, and emitted only when that
//     fine-level value improves, so the sink always sees input-graph
//     assignments with comparable values;
//   * an incumbent is a post-hoc guard, applied last: the coarsening would
//     dissolve it, so there is no in-search best-at-k for it to seed.
#pragma once

#include <cstdint>

#include "core/fusion_fission.hpp"
#include "multilevel/coarsen.hpp"

namespace ffp {

struct MlffOptions {
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;

  /// Coarsen until the graph has at most this many vertices. 0 derives
  /// max(k*64, n/64), clamped to at least 2k so the coarsest graph can
  /// always hold k atoms.
  int coarse_n = 0;
  /// Refinement attempt budget for the burst after the FIRST (coarsest)
  /// projection; each finer level gets half the previous budget. One
  /// attempt = one boundary vertex examined (O(deg) scan).
  std::int64_t refine_steps = 32768;
  MatchingKind matching = MatchingKind::HeavyEdge;

  std::uint64_t seed = 2006;
};

struct MlffResult {
  Partition best;           ///< exactly k parts on the input graph
  double best_value = 0.0;  ///< objective evaluated on `best`
  int levels = 0;           ///< coarsening levels actually used
  int coarse_vertices = 0;  ///< vertex count of the graph FF ran on
  double coarse_value = 0.0;  ///< FF's best objective on the coarse graph
  std::int64_t coarse_steps = 0;
  std::int64_t fusions = 0;
  std::int64_t fissions = 0;
  int reheats = 0;
  std::int64_t refine_attempts = 0;  ///< boundary vertices examined
  std::int64_t refine_moves = 0;     ///< strictly improving moves applied
};

/// Runs the coarsen → fusion-fission → project+refine pipeline. The stop
/// condition governs the coarse FF phase only; refinement adds bounded
/// extra work capped by refine_steps. The recorder (when given) is started
/// here and receives the final value — coarse-level objective values are
/// not comparable to fine-level ones for the ratio criteria, so the coarse
/// phase does not stream into it. `hooks` are mapped across the chain as
/// described above.
MlffResult mlff_partition(const Graph& g, int k, const MlffOptions& options,
                          const StopCondition& stop,
                          AnytimeRecorder* recorder = nullptr,
                          const RunHooks& hooks = {});

}  // namespace ffp
