// Krylov solver for symmetric — possibly indefinite — systems
// (A − shift·I) x = b, from the Paige–Saunders Lanczos family.
//
// CG breaks down on indefinite systems, and RQI solves (L − μI) y = x with
// μ inside L's spectrum — exactly the indefinite case. This is why Chaco
// (and the paper's "RQI/Symmlq" rows) pair RQI with a Paige–Saunders
// solver. We implement the MINRES member of that family: it shares SYMMLQ's
// Lanczos machinery and solves the same class of systems, with simpler
// recurrences and a monotone residual. The public API keeps the paper's
// SYMMLQ terminology (README, "Reproducing the paper").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/operators.hpp"

namespace ffp {

struct SymmlqOptions {
  double shift = 0.0;        ///< solves (A − shift I) x = b
  double tolerance = 1e-10;  ///< relative residual target
  int max_iterations = 0;    ///< 0 = 4·n
};

struct SymmlqResult {
  std::vector<double> x;
  int iterations = 0;
  bool converged = false;
  double relative_residual = 0.0;  ///< true ‖b−(A−σI)x‖ / ‖b‖, recomputed
};

SymmlqResult symmlq_solve(const SymmetricOperator& op,
                          std::span<const double> b,
                          const SymmlqOptions& options);

}  // namespace ffp
