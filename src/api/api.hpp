// ffp::api — the stable public facade over the whole repository. Prefer
// including this via its stable path:
//
//   #include "ffp/api.hpp"
//
//   ffp::api::Problem problem = ffp::api::Problem::from_file("mesh.graph");
//   ffp::api::SolveSpec spec;           // method, k, objective, seed, budget
//   spec.method = "fusion_fission";
//   spec.k = 32;
//   auto result = ffp::api::Engine::shared().solve(problem, spec);
//
// Problem      — graph from file / inline CSR / named generator, validated
//                through the hardened io limits, content-digested.
// SolveSpec    — registry method spec + k/objective/seed/budget/restarts;
//                one struct instead of SolverRequest + PortfolioRunner
//                wiring at every call site.
// Engine       — async submit/solve over the service JobScheduler and the
//                process ThreadBudget, with an LRU result cache riding on
//                deterministic solves.
// SolveHandle  — wait / poll / cancel (anytime best-so-far) / streamed
//                improvements for one submitted solve.
#pragma once

#include "api/engine.hpp"
#include "api/problem.hpp"
#include "api/result_cache.hpp"
#include "api/solve_spec.hpp"
