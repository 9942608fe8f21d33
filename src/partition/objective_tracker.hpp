// Incremental objective tracking: owns a Partition plus the criterion being
// optimized and maintains the criterion's running value across single-vertex
// moves in O(deg(v)) — the subsystem that removes every per-step O(k) full
// evaluate() from the metaheuristic hot loops (fusion-fission Algorithm 1/2,
// simulated annealing, k-way FM).
//
// For the built-in criteria (ObjectiveKind) a move only changes the O(1)
// per-part terms of its two endpoint parts (partition/objective_terms.hpp),
// so the tracker subtracts both terms, performs the move, and adds the two
// recomputed terms — tying the running value to the Partition's actual
// incremental statistics rather than to a chain of predicted deltas. Custom
// ObjectiveFn implementations fall back to move_delta accumulation.
// Kahan-compensated summation keeps drift over millions of moves far below
// the validate() tolerance.
//
// A move is priced, then applied, on one path:
//
//   const Weight own = tracker.partition().neighbor_parts(v, adjacent);
//   for (int t : adjacent.marked()) {
//     const auto trial = tracker.trial_move(v, t, {own, adjacent.weight(t)});
//     ... keep the best trial ...
//   }
//   tracker.move(best);
//
// One neighbor scan prices every candidate target (O(1) each for the
// built-in criteria) and the chosen trial applies without scanning v again.
// trial_move(v, t) scans for a single target, and move(v, t) is
// move(trial_move(v, t)).
//
// An optional auxiliary per-part term sum rides along under the same
// two-terms-per-move update (fusion-fission uses it to cache the
// choice_term_bias leak-ratio sum instead of rescanning all atoms each
// step).
//
// Precision: the running sum is only as precise as the largest magnitude it
// ever held — Mcut's zero-denominator penalties push transient values to
// ~1e9 during singleton-heavy phases, which would leave ~1e-7 absolute
// residue behind after the penalties cancel away. The tracker watches the
// peak |value| since the last from-scratch sync and re-evaluates once the
// value drops six orders of magnitude below it, bounding the relative drift
// at ~1e-9 with at most a handful of O(k) rescues per descent.
//
// Thread safety mirrors Partition's: const members (value, trial_move,
// partition) are safe to call from any number of threads while
// no thread mutates the tracker; mutating members need exclusive access.
#pragma once

#include <utility>

#include "partition/objectives.hpp"

namespace ffp {

class ObjectiveTracker {
 public:
  /// Tracks a built-in criterion via per-part term updates.
  ObjectiveTracker(Partition p, ObjectiveKind kind);

  /// Tracks any ObjectiveFn. The four built-in singletons are recognized
  /// and get term-based updates; custom objectives use move_delta
  /// accumulation. `fn` must outlive the tracker.
  ObjectiveTracker(Partition p, const ObjectiveFn& fn);

  const Partition& partition() const { return p_; }
  const ObjectiveFn& objective_fn() const { return *fn_; }

  /// Running objective value — equals objective_fn().evaluate(partition())
  /// up to floating-point drift (see validate()).
  double value() const { return value_; }

  /// A priced move: delta is the exact change in value() if v moved to
  /// `target` (0 if already there), and profile is what the apply reuses.
  /// A trial is only valid against the exact state it was priced on
  /// (checked in debug builds).
  struct TrialMove {
    VertexId v = -1;
    int target = -1;
    double delta = 0.0;
    Partition::MoveProfile profile;
  };

  /// Prices v → target from a profile the caller already scanned for this
  /// state (Partition::neighbor_parts). The built-in criteria take the O(1)
  /// detail::move_delta_from_profile, bit-identical to their
  /// ObjectiveFn::move_delta; a custom objective calls its own move_delta.
  TrialMove trial_move(VertexId v, int target,
                       Partition::MoveProfile profile) const;

  /// As above, scanning v for the one target.
  TrialMove trial_move(VertexId v, int target) const {
    return trial_move(v, target, p_.move_profile(v, target));
  }

  /// The one apply path: moves trial.v to trial.target reusing its profile
  /// and updates the running value (and the auxiliary sum, if tracked).
  void move(const TrialMove& trial);

  void move(VertexId v, int target) { move(trial_move(v, target)); }

  /// Bulk fusion: merges part `src` into `dst` (Partition::merge_into) and
  /// updates the running value in O(1) on top of the O(|src|) relabel.
  /// `w_between` is the connection weight between the two parts.
  void merge_parts(int src, int dst, Weight w_between);

  /// Bulk fission: splits `moved` out of `src` into the empty part `fresh`
  /// (Partition::split_off) and updates the running value in O(1) on top
  /// of the single arc scan.
  void split_part(int src, int fresh, std::span<const VertexId> moved);

  /// Adds an empty part slot (contributes 0 to every criterion).
  int make_part() { return p_.make_part(); }

  /// Replaces the tracked partition (restart/reheat) and revalues it from
  /// scratch. O(k).
  void reset(Partition p);

  /// Replaces the tracked partition adopting a caller-known value (e.g. the
  /// recorded best when reheating), skipping the O(k) re-evaluate.
  void reset(Partition p, double known_value);

  /// Re-syncs the running value with a from-scratch evaluate; returns it.
  double resync();

  // Auxiliary per-part term sum, maintained incrementally alongside the
  // objective. `term` must be 0 on an empty part, as every objective term
  // is. Pass nullptr to stop tracking.
  using PartTermFn = double (*)(const Partition&, int part);
  void track_aux(PartTermFn term);
  /// Σ term(q) over non-empty parts q (0 when no aux term is tracked).
  double aux_sum() const { return aux_sum_; }

  /// Drift check: FFP_CHECKs value() against a from-scratch evaluate()
  /// within `tol` (absolute and relative) and re-validates the Partition's
  /// own incremental statistics. Test/debug hook; throws on divergence.
  void validate(double tol = 1e-7) const;

  /// Moves the owned partition out; the tracker must not be used after.
  Partition take() && { return std::move(p_); }

 private:
  double part_term(int q) const;
  double aux_resync();
  /// The bookkeeping move, merge_parts and split_part share: `apply`
  /// changes the partition in parts a and b only, the running value moves
  /// by the change in those two parts' terms (for a custom objective by
  /// *custom_delta, or by a full re-evaluate when that is null), and the
  /// aux sum by the change in their aux terms.
  template <typename Apply>
  void update_two_parts(int a, int b, const double* custom_delta,
                        Apply&& apply);

  void maybe_rescue_precision();

  Partition p_;
  const ObjectiveFn* fn_;
  ObjectiveKind kind_ = ObjectiveKind::Cut;
  bool term_based_ = false;
  double value_ = 0.0;
  double carry_ = 0.0;  // Kahan compensation for value_
  double peak_ = 0.0;   // max |value_| since the last from-scratch sync
  PartTermFn aux_ = nullptr;
  double aux_sum_ = 0.0;
  double aux_carry_ = 0.0;
};

}  // namespace ffp
