#include "solver/solver.hpp"

#include "refine/kway_fm.hpp"
#include "util/rng.hpp"

namespace ffp {

namespace {

/// Arms a private copy of the request's stop condition so the budget clock
/// starts when this run starts, not when the request was built (portfolio
/// restarts may be queued long after the request exists).
StopCondition armed(const SolverRequest& request) {
  StopCondition stop = request.stop;
  stop.start();
  return stop;
}

double value_of(const Partition& p, const SolverRequest& request) {
  return objective(request.objective).evaluate(p);
}

}  // namespace

double SolverResult::stat(std::string_view name, double fallback) const {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return fallback;
}

SolverResult FusionFissionSolver::run(const Graph& g,
                                      const SolverRequest& request) const {
  FusionFissionOptions opt = base_;
  opt.objective = request.objective;
  opt.seed = request.seed;
  opt.warm_start = request.warm_start;
  opt.warm_start_value = request.warm_start_value;
  opt.incumbent = request.incumbent;
  opt.incumbent_value = request.incumbent_value;
  opt.checkpoint_every_ms = request.checkpoint_every_ms;
  opt.checkpoint_sink = request.checkpoint_sink;
  WallTimer timer;
  const StopCondition stop = armed(request);
  FusionFission ff(g, request.k, opt);
  auto res = ff.run(stop, request.recorder);
  SolverResult out{std::move(res.best), res.best_value,
                   timer.elapsed_seconds(), {}};
  out.stats = {{"steps", static_cast<double>(res.steps)},
               {"fusions", static_cast<double>(res.fusions)},
               {"fissions", static_cast<double>(res.fissions)},
               {"ejections", static_cast<double>(res.ejections)},
               {"reheats", static_cast<double>(res.reheats)},
               {"part_counts_visited",
                static_cast<double>(res.best_by_part_count.size())}};
  return out;
}

SolverResult MlffSolver::run(const Graph& g,
                             const SolverRequest& request) const {
  MlffOptions opt = base_;
  opt.objective = request.objective;
  opt.seed = request.seed;
  opt.warm_start = request.warm_start;
  opt.warm_start_value = request.warm_start_value;
  opt.checkpoint_every_ms = request.checkpoint_every_ms;
  opt.checkpoint_sink = request.checkpoint_sink;
  WallTimer timer;
  const StopCondition stop = armed(request);
  auto res = mlff_partition(g, request.k, opt, stop, request.recorder);
  SolverResult out{std::move(res.best), res.best_value,
                   timer.elapsed_seconds(), {}};
  if (request.incumbent != nullptr &&
      request.incumbent->size() ==
          static_cast<std::size_t>(g.num_vertices())) {
    // Memetic incumbent cap, post-hoc: mlff has no in-search best-at-k to
    // seed (the coarsening would dissolve it), so when the incumbent
    // still beats the run, report the incumbent.
    Partition inc = Partition::from_assignment(g, *request.incumbent);
    if (inc.num_nonempty_parts() == request.k) {
      double value = objective(request.objective).evaluate(inc);
      if (request.incumbent_value < value) value = request.incumbent_value;
      if (value < out.best_value) {
        out.best = std::move(inc);
        out.best_value = value;
      }
    }
  }
  out.stats = {{"levels", static_cast<double>(res.levels)},
               {"coarse_vertices", static_cast<double>(res.coarse_vertices)},
               {"steps", static_cast<double>(res.coarse_steps)},
               {"fusions", static_cast<double>(res.fusions)},
               {"fissions", static_cast<double>(res.fissions)},
               {"reheats", static_cast<double>(res.reheats)},
               {"refine_attempts", static_cast<double>(res.refine_attempts)},
               {"refine_moves", static_cast<double>(res.refine_moves)}};
  return out;
}

SolverResult AnnealingSolver::run(const Graph& g,
                                  const SolverRequest& request) const {
  AnnealingOptions opt = base_;
  opt.objective = request.objective;
  opt.seed = request.seed;
  WallTimer timer;
  const StopCondition stop = armed(request);
  PercolationOptions popt;
  popt.seed = request.seed;
  const auto init = percolation_partition(g, request.k, popt);
  SimulatedAnnealing sa(g, request.k, opt);
  if (request.recorder != nullptr) request.recorder->start();
  auto res = sa.run(init, stop, request.recorder);
  SolverResult out{std::move(res.best), res.best_value,
                   timer.elapsed_seconds(), {}};
  out.stats = {{"steps", static_cast<double>(res.steps)},
               {"accepted", static_cast<double>(res.accepted)},
               {"coolings", static_cast<double>(res.coolings)}};
  return out;
}

SolverResult AntColonySolver::run(const Graph& g,
                                  const SolverRequest& request) const {
  AntColonyOptions opt = base_;
  opt.objective = request.objective;
  opt.seed = request.seed;
  WallTimer timer;
  const StopCondition stop = armed(request);
  PercolationOptions popt;
  popt.seed = request.seed;
  const auto init = percolation_partition(g, request.k, popt);
  AntColony aco(g, request.k, opt);
  if (request.recorder != nullptr) request.recorder->start();
  auto res = aco.run(init, stop, request.recorder);
  SolverResult out{std::move(res.best), res.best_value,
                   timer.elapsed_seconds(), {}};
  out.stats = {{"iterations", static_cast<double>(res.iterations)}};
  return out;
}

SolverResult MultilevelSolver::run(const Graph& g,
                                   const SolverRequest& request) const {
  MultilevelOptions opt = base_;
  opt.seed = request.seed;
  WallTimer timer;
  auto p = multilevel_partition(g, request.k, opt);
  const double value = value_of(p, request);
  return SolverResult{std::move(p), value, timer.elapsed_seconds(), {}};
}

SolverResult SpectralSolver::run(const Graph& g,
                                 const SolverRequest& request) const {
  SpectralOptions opt = base_;
  opt.seed = request.seed;
  WallTimer timer;
  auto p = spectral_partition(g, request.k, opt);
  if (final_kway_refine_) {
    // Chaco REFINE_PARTITION analog, with the Table-1 seed derivation kept
    // bit-for-bit so the reproduced rows don't shift.
    Rng rng(request.seed ^ 0xfeed);
    KwayFmOptions fm;
    fm.max_imbalance = 1.10;
    kway_fm_refine(p, objective(ObjectiveKind::Cut), fm, rng);
  }
  const double value = value_of(p, request);
  return SolverResult{std::move(p), value, timer.elapsed_seconds(), {}};
}

SolverResult LinearSolver::run(const Graph& g,
                               const SolverRequest& request) const {
  LinearOptions opt = base_;
  opt.seed = request.seed;
  WallTimer timer;
  auto p = linear_partition(g, request.k, opt);
  const double value = value_of(p, request);
  return SolverResult{std::move(p), value, timer.elapsed_seconds(), {}};
}

SolverResult PercolationSolver::run(const Graph& g,
                                    const SolverRequest& request) const {
  PercolationOptions opt = base_;
  opt.seed = request.seed;
  WallTimer timer;
  auto p = percolation_partition(g, request.k, opt);
  const double value = value_of(p, request);
  return SolverResult{std::move(p), value, timer.elapsed_seconds(), {}};
}

}  // namespace ffp
