// Wall-clock budgets for the bench binaries.
//
// Defaults are sized so the whole bench directory runs in a few minutes on
// one core. Override with:
//   FFP_BENCH_BUDGET_MS  — per-metaheuristic-run budget (table benches)
//   FFP_FIG1_BUDGET_MS   — total trajectory length for the Figure-1 bench
// The paper ran minutes-to-an-hour on a 2006 Pentium 4, so absolute values
// differ from its tables (README, "Reproducing the paper").
#pragma once

#include <cstdint>

namespace ffp {

double table_budget_ms();  ///< default 6000 ms
double fig1_budget_ms();   ///< default 8000 ms

/// Common bench seed (FFP_BENCH_SEED, default 2006).
std::uint64_t bench_seed();

}  // namespace ffp
