#include "partition/objective_tracker.hpp"

#include <cmath>

#include "partition/objective_terms.hpp"
#include "util/stats.hpp"

namespace ffp {

namespace {

/// Kahan-compensated accumulate: sum += delta with running error carry.
inline void compensated_add(double& sum, double& carry, double delta) {
  const double y = delta - carry;
  const double t = sum + y;
  carry = (t - sum) - y;
  sum = t;
}

/// Maps a built-in singleton back to its kind; nullopt for custom fns.
bool builtin_kind_of(const ObjectiveFn& fn, ObjectiveKind& out) {
  for (auto kind : {ObjectiveKind::Cut, ObjectiveKind::NormalizedCut,
                    ObjectiveKind::MinMaxCut, ObjectiveKind::RatioCut}) {
    if (&objective(kind) == &fn) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

ObjectiveTracker::ObjectiveTracker(Partition p, ObjectiveKind kind)
    : p_(std::move(p)),
      fn_(&objective(kind)),
      kind_(kind),
      term_based_(true) {
  resync();
}

ObjectiveTracker::ObjectiveTracker(Partition p, const ObjectiveFn& fn)
    : p_(std::move(p)), fn_(&fn) {
  term_based_ = builtin_kind_of(fn, kind_);
  resync();
}

double ObjectiveTracker::part_term(int q) const {
  return detail::objective_part_term(p_, kind_, q);
}

template <typename Apply>
void ObjectiveTracker::update_two_parts(int a, int b,
                                        const double* custom_delta,
                                        Apply&& apply) {
  const double term_before = term_based_ ? part_term(a) + part_term(b) : 0.0;
  const double aux_before =
      aux_ != nullptr ? aux_(p_, a) + aux_(p_, b) : 0.0;
  apply();
  if (!term_based_ && custom_delta == nullptr) {
    // Custom objective with no priced delta (bulk merge/split): no term
    // decomposition to lean on, so pay one full evaluate — custom-fn
    // callers don't sit in the fusion hot loop.
    resync();
    return;
  }
  compensated_add(value_, carry_,
                  term_based_ ? part_term(a) + part_term(b) - term_before
                              : *custom_delta);
  if (aux_ != nullptr) {
    compensated_add(aux_sum_, aux_carry_,
                    aux_(p_, a) + aux_(p_, b) - aux_before);
  }
  maybe_rescue_precision();
}

ObjectiveTracker::TrialMove ObjectiveTracker::trial_move(
    VertexId v, int target, Partition::MoveProfile profile) const {
  TrialMove trial{v, target, 0.0, profile};
  if (p_.part_of(v) == target) return trial;
  trial.delta = term_based_
                    ? detail::move_delta_from_profile(
                          p_, kind_, v, target, profile.ext_from,
                          profile.ext_to)
                    : fn_->move_delta(p_, v, target);
  return trial;
}

void ObjectiveTracker::move(const TrialMove& trial) {
  const int from = p_.part_of(trial.v);
  if (from == trial.target) return;
  const auto apply = [&] { p_.move(trial.v, trial.target, trial.profile); };
  if (term_based_ && kind_ == ObjectiveKind::Cut && aux_ == nullptr) {
    // Cut is the Partition's own total_cut_pairs — adopt it directly; no
    // term arithmetic, no summation drift at all.
    apply();
    value_ = p_.total_cut_pairs();
    carry_ = 0.0;
    maybe_rescue_precision();
    return;
  }
  update_two_parts(from, trial.target, &trial.delta, apply);
}

void ObjectiveTracker::merge_parts(int src, int dst, Weight w_between) {
  // The emptied src contributes an exact 0 term afterwards.
  update_two_parts(src, dst, nullptr,
                   [&] { p_.merge_into(src, dst, w_between); });
}

void ObjectiveTracker::split_part(int src, int fresh,
                                  std::span<const VertexId> moved) {
  update_two_parts(src, fresh, nullptr,
                   [&] { p_.split_off(src, fresh, moved); });
}

void ObjectiveTracker::maybe_rescue_precision() {
  const double mag = std::abs(value_);
  if (mag > peak_) {
    peak_ = mag;
    return;
  }
  // The running sum carries absolute rounding residue proportional to the
  // largest magnitude it passed through (Mcut/RatioCut penalty spikes). Once
  // the value has descended six orders below that peak, re-evaluate from
  // scratch — rare (a few times per descent) and O(k).
  if (mag * 1e6 < peak_) resync();
}

void ObjectiveTracker::reset(Partition p) {
  p_ = std::move(p);
  resync();
}

void ObjectiveTracker::reset(Partition p, double known_value) {
  p_ = std::move(p);
  value_ = known_value;
  carry_ = 0.0;
  peak_ = std::abs(known_value);
  aux_resync();
}

double ObjectiveTracker::resync() {
  value_ = fn_->evaluate(p_);
  carry_ = 0.0;
  peak_ = std::abs(value_);
  aux_resync();
  return value_;
}

double ObjectiveTracker::aux_resync() {
  aux_sum_ = 0.0;
  aux_carry_ = 0.0;
  if (aux_ != nullptr) {
    for (int q : p_.nonempty_parts()) aux_sum_ += aux_(p_, q);
  }
  return aux_sum_;
}

void ObjectiveTracker::track_aux(PartTermFn term) {
  aux_ = term;
  aux_resync();
}

void ObjectiveTracker::validate(double tol) const {
  p_.validate();
  const double fresh = fn_->evaluate(p_);
  FFP_CHECK(close(fresh, value_, tol, tol), "tracked ", fn_->name(),
            " value drifted: running ", value_, " vs evaluate ", fresh);
  if (aux_ != nullptr) {
    double fresh_aux = 0.0;
    for (int q : p_.nonempty_parts()) fresh_aux += aux_(p_, q);
    FFP_CHECK(close(fresh_aux, aux_sum_, tol, tol),
              "tracked aux term sum drifted: running ", aux_sum_,
              " vs recompute ", fresh_aux);
  }
}

}  // namespace ffp
