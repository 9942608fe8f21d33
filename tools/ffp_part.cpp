// ffp_part — command-line graph partitioner over the ffp::api facade.
//
//   ffp_part --graph mesh.graph --k 32 --method "Fusion Fission"
//            --objective mcut --budget-ms 5000 --out mesh.part
//
// Reads Chaco/METIS graphs (the Walshaw benchmark format) and runs any
// solver, named either by its Table-1 row label ("Spectral (RQI, Oct, KL)")
// or by a raw registry spec ("spectral:engine=rqi,arity=oct,kl=true").
// --graph also accepts any generator spec (api::Problem::generated):
// atc:<seed>, grid2d:64,64, geometric:1000,0.055,3, ... With --list it
// prints the available methods and solvers.
//
// --restarts N fans N independently seeded runs across portfolio workers
// and keeps the best; --threads T sizes the process thread budget those
// workers lease from. A single run is serial. The result is bit-identical
// for a fixed seed regardless of --threads: with restarts, metaheuristics
// run under a deterministic *step* budget derived from --budget-ms
// (override with --steps) — the rule lives in
// api::SolveSpec::resolved_steps(), shared with the daemon, the benches
// and every embedder.
#include <cstdio>
#include <string>

#include "benchlib/methods.hpp"
#include "ffp/api.hpp"
#include "graph/io.hpp"
#include "partition/balance.hpp"
#include "partition/report.hpp"
#include "service/thread_budget.hpp"
#include "solver/registry.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

namespace {

ffp::ObjectiveKind parse_objective(const std::string& name) {
  const auto kind = ffp::objective_from_name(name);
  if (!kind) {
    throw ffp::Error("unknown objective '" + name +
                     "' (expected cut|ncut|mcut|rcut)");
  }
  return *kind;
}

/// --method accepts a Table-1 row label or a registry spec; either way the
/// SolveSpec carries a registry spec string.
std::string resolve_method_spec(const std::string& method) {
  const std::string trimmed(ffp::trim(method));
  if (trimmed.find(':') != std::string::npos) {
    // Has options → it can only be a registry spec; submission surfaces
    // the registry's errors (unknown solver + available list, bad keys).
    return trimmed;
  }
  try {
    return ffp::table1_spec(trimmed);
  } catch (const ffp::Error&) {
    // Not a Table-1 label; registry name, or the registry's richer error.
    return trimmed;
  }
}

void list_methods() {
  std::printf("Table-1 rows (--method accepts the label):\n");
  for (const auto& m : ffp::table1_methods()) {
    std::printf("  %-26s -> %s\n", m.name.c_str(), m.solver_spec.c_str());
  }
  std::printf("\nregistry solvers (--method accepts "
              "\"name:key=value,key=value\"):\n");
  const auto& reg = ffp::SolverRegistry::builtin();
  for (const auto& name : reg.names()) {
    std::printf("  %-16s %s\n", name.c_str(), reg.help(name).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("graph", "atc:2006", "Chaco/METIS file, or a generator spec "
                                 "(atc:<seed>, grid2d:64,64, ...)")
      .flag("k", "32", "number of parts")
      .flag("method", "Fusion Fission", "Table-1 label or registry spec")
      .flag("objective", "mcut", "metaheuristic criterion: cut|ncut|mcut|rcut")
      .flag("budget-ms", "5000", "metaheuristic wall-clock budget")
      .flag("steps", "0", "metaheuristic step budget (0 = derive from budget)")
      .flag("restarts", "1", "portfolio restarts (parallel multi-start)")
      .flag("threads", "0",
            "process-wide worker budget: with --restarts R the portfolio "
            "runs min(R, budget) restarts at once. Never changes the "
            "result. 0 = hardware concurrency")
      .flag("seed", "2006", "random seed")
      .flag("out", "", "partition output file (optional)")
      .toggle("report", "print the full per-part report")
      .toggle("list", "list available methods and exit")
      .toggle("help", "show this help");
  try {
    args.parse(argc, argv);
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (args.get_bool("help")) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  if (args.get_bool("list")) {
    list_methods();
    return 0;
  }

  try {
    const ffp::api::Problem problem =
        ffp::api::Problem::from_any(args.get("graph"));
    std::printf("graph: %s\n", problem.graph().summary().c_str());

    const std::int64_t threads_arg = args.get_int("threads");
    FFP_CHECK(threads_arg >= 0, "--threads must be >= 0");

    // The portfolio leases its restart workers from the process budget
    // sized by --threads. The partition is budget-independent: leases only
    // decide where the restarts run.
    ffp::ThreadBudget::set_process_total(
        static_cast<unsigned>(threads_arg));

    ffp::api::SolveSpec spec;
    spec.method = resolve_method_spec(args.get("method"));
    spec.k = static_cast<int>(args.get_int("k"));
    spec.objective = parse_objective(args.get("objective"));
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    spec.steps = args.get_int("steps");
    spec.budget_ms = args.get_double("budget-ms");
    spec.restarts = static_cast<int>(args.get_int("restarts"));
    FFP_CHECK(spec.restarts >= 1, "--restarts must be >= 1");

    const ffp::api::ResolvedSpec resolved = spec.resolve();
    const std::int64_t steps = resolved.steps;
    std::printf("method: %s  k=%d", args.get("method").c_str(), spec.k);
    if (resolved.metaheuristic) {
      if (steps > 0) {
        std::printf("  steps=%lld", static_cast<long long>(steps));
      } else {
        std::printf("  budget=%.0fms", spec.budget_ms);
      }
    }
    if (spec.restarts > 1) std::printf("  restarts=%d", spec.restarts);
    std::printf("\n");

    ffp::api::Engine engine;  // one runner over the process budget
    const ffp::SolverResult result = engine.solve(problem, spec);
    const auto& p = result.best;

    std::printf("\n  Cut       = %14.1f\n",
                ffp::objective(ffp::ObjectiveKind::Cut).evaluate(p));
    std::printf("  Ncut      = %14.3f\n",
                ffp::objective(ffp::ObjectiveKind::NormalizedCut).evaluate(p));
    std::printf("  Mcut      = %14.3f\n",
                ffp::objective(ffp::ObjectiveKind::MinMaxCut).evaluate(p));
    std::printf("  RatioCut  = %14.3f\n",
                ffp::objective(ffp::ObjectiveKind::RatioCut).evaluate(p));
    std::printf("  edge cut  = %14.1f (each edge once)\n", p.edge_cut());
    std::printf("  imbalance = %14.3f\n", ffp::imbalance(p, spec.k));
    std::printf("  parts     = %14d\n", p.num_nonempty_parts());
    std::printf("  time      = %14.2fs\n", result.seconds);
    for (const auto& [stat, value] : result.stats) {
      std::printf("  %-9s = %14.0f\n", stat.c_str(), value);
    }

    if (args.get_bool("report")) {
      std::printf("\n%s", ffp::analyze(p).to_string().c_str());
    }

    const std::string out = args.get("out");
    if (!out.empty()) {
      ffp::write_partition_file(p.assignment(), out);
      std::printf("\npartition written to %s\n", out.c_str());
    }
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
