// The paper's three partitioning criteria (§1), plus ratio cut as an
// extension point, behind one interface:
//
//   Cut(P)  = Σ_A cut(A, V−A)                     (counts each cut edge twice)
//   Ncut(P) = Σ_A cut(A, V−A) / assoc(A, V),  assoc(A,V) = cut(A,V−A) + W(A)
//   Mcut(P) = Σ_A cut(A, V−A) / W(A)
//
// W(A) sums ordered internal pairs (each internal edge twice), which makes
// assoc(A,V) equal vol(A). Empty parts contribute 0.
// A part with cut > 0 but W(A) = 0 (e.g. a singleton) would make Mcut
// infinite; we return a large finite penalty instead so that annealing-style
// acceptance rules keep working. All objectives are lower-is-better.
//
// Every objective provides an exact O(deg) move_delta used by the
// metaheuristics' hot loops; tests verify delta == evaluate(after) −
// evaluate(before) across random graphs, moves and seeds.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "partition/partition.hpp"

namespace ffp {

enum class ObjectiveKind { Cut, NormalizedCut, MinMaxCut, RatioCut };

std::string_view objective_name(ObjectiveKind kind);

/// The short CLI/protocol token (cut|ncut|mcut|rcut) — the exact spelling
/// objective_from_name accepts. Durable formats (journal payloads) must use
/// this, not the display name, so a write→recover round trip cannot drift.
std::string_view objective_token(ObjectiveKind kind);

/// Inverse for the short CLI/protocol names (cut|ncut|mcut|rcut, case
/// sensitive); nullopt on anything else. ffp_part, the service protocol and
/// the job journal share this single mapping.
std::optional<ObjectiveKind> objective_from_name(std::string_view name);

class ObjectiveFn {
 public:
  virtual ~ObjectiveFn() = default;

  virtual std::string_view name() const = 0;
  virtual double evaluate(const Partition& p) const = 0;

  /// Exact change in evaluate() if v moved to `target` (0 if already there).
  virtual double move_delta(const Partition& p, VertexId v, int target) const = 0;
};

/// Singleton evaluator for a built-in criterion.
const ObjectiveFn& objective(ObjectiveKind kind);

/// Penalty stand-in for a division by zero denominator in Mcut/RatioCut
/// terms: `cut * kZeroDenominatorPenalty`.
inline constexpr double kZeroDenominatorPenalty = 1e6;

/// Helper for custom objectives that cannot provide an analytic delta:
/// performs the move, evaluates, and moves back. O(deg + cost of evaluate).
double trial_move_delta(Partition& p, VertexId v, int target,
                        const ObjectiveFn& fn);

}  // namespace ffp
