// The fusion-fission scaling function (§4.1): objective values of
// partitions with different part counts are not comparable (fewer parts →
// smaller objective; "results is the smallest when there is no partition"),
// so FF divides the objective by a per-part-count scale s(p) chosen so that
// *equal-quality* partitions at different p carry equal energy — the
// binding-energy analogy.
//
// Our concrete instantiation uses the expected objective
// of a uniformly random p-partition as the scale:
//   Cut : E[Σ cut(A)] = 2M·(1 − 1/p)            → s(p) ∝ 1 − 1/p
//   Ncut: each term ≈ 1 − 1/p, p terms          → s(p) ∝ p − 1
//   Mcut: each term ≈ (1−1/p)/(1/p) = p−1       → s(p) ∝ p(p − 1)
// (RatioCut behaves like Ncut.) A random partition then has energy ≈ const
// for every p, and a good one has energy < 1 uniformly — the flat "region
// of stability" of the binding-energy curve, with the steep light-element
// rise coming from the p→1 collapse of the scale. Linear and identity
// scalings are kept for the ablation bench.
#pragma once

#include <memory>
#include <string_view>

#include "partition/objectives.hpp"

namespace ffp {

enum class ScalingKind {
  BindingEnergy,  ///< the random-expectation normalization above (default)
  Linear,         ///< s(p) = p (ablation)
  Identity,       ///< s(p) = 1 — no scaling (ablation)
};

class ScalingFunction {
 public:
  virtual ~ScalingFunction() = default;
  virtual std::string_view name() const = 0;
  /// Scale for a partition with p non-empty parts; must be > 0 for p >= 2.
  virtual double scale(int p) const = 0;
};

/// Factory. The BindingEnergy scaling needs the objective it normalizes and
/// the graph's total edge weight (for the Cut criterion).
std::unique_ptr<ScalingFunction> make_scaling(ScalingKind kind,
                                              ObjectiveKind objective,
                                              double total_edge_weight);

/// Energy(P) = objective(P) / scale(p). p <= 1 is an invalid FF state
/// (a single atom has nothing to cut) and maps to +infinity.
double partition_energy(double objective_value, int nonempty_parts,
                        const ScalingFunction& scaling);

}  // namespace ffp
