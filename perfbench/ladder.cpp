// perfbench_ladder — the in-process half of the benchmark's traced run.
//
//   perfbench_ladder --graph g.graph --method mlff --k 64 --steps 20000 \
//       --seeds 11,12,13 --lines submits.jsonl --out ladder.json
//
// For one workload's generated inputs it calls each layer's public entry
// point on the same jobs, bottom to top, and times every call as a span:
//
//   kernel (FusionFission / mlff_partition) → Solver::run →
//   PortfolioRunner::run → api::Engine → ServiceSession::handle_line
//
// Spans (name, start, end, parent, job) are kept in memory and written to
// --out as JSON when the ladder ends, together with the solver counters of
// every job. run.py turns them into the per-layer metrics; nothing in the
// library is instrumented.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/fusion_fission.hpp"
#include "graph/io.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/mlff.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/thread_budget.hpp"
#include "solver/portfolio.hpp"
#include "solver/registry.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using ffp::WallTimer;

/// Results the ladder times but does not otherwise use are stored here, so
/// link-time optimization cannot drop the call as dead code.
volatile std::uint64_t g_sink = 0;

/// In-memory span recorder. Times are milliseconds since the tracer
/// started; parent is an index into the span list or -1.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int job = -1;
  };

  int begin(std::string name, int job, int parent = -1) {
    spans_.push_back({std::move(name), clock_.elapsed_millis(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int span) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end_ms = clock_.elapsed_millis();
    return s.end_ms - s.start_ms;
  }
  /// Runs f() inside one span and returns its duration in ms.
  template <typename F>
  double span(std::string name, int job, int parent, F&& f) {
    const int s = begin(std::move(name), job, parent);
    f();
    return end(s);
  }

  void count(const std::string& name, int job, double value) {
    counts_.push_back({name, job, value});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    FFP_CHECK(out.good(), "cannot write ", path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"start_ms\":"
          << ffp::format("%.6f", s.start_ms) << ",\"end_ms\":"
          << ffp::format("%.6f", s.end_ms) << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}";
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const Count& c = counts_[i];
      out << (i ? "," : "") << "{\"name\":\"" << c.name << "\",\"job\":"
          << c.job << ",\"value\":" << ffp::format("%.17g", c.value) << "}";
    }
    out << "]}\n";
  }

 private:
  struct Count {
    std::string name;
    int job;
    double value;
  };
  WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

std::vector<std::uint64_t> parse_seeds(std::string csv) {
  std::replace(csv.begin(), csv.end(), ',', ' ');
  std::vector<std::uint64_t> seeds;
  for (const std::string_view piece : ffp::split_ws(csv)) {
    const auto v = ffp::parse_int(piece);
    FFP_CHECK(v.has_value() && *v >= 1, "--seeds entries must be >= 1");
    seeds.push_back(static_cast<std::uint64_t>(*v));
  }
  FFP_CHECK(!seeds.empty(), "--seeds needs at least one seed");
  return seeds;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  FFP_CHECK(in.good(), "cannot read ", path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The client id inside a submit line, so the ladder can ask for its
/// result (the lines are written by run.py as `{"op":"submit","id":"...",`).
std::string line_id(const std::string& line) {
  const std::string key = "\"id\":\"";
  const std::size_t at = line.find(key);
  FFP_CHECK(at != std::string::npos, "submit line without an id");
  const std::size_t from = at + key.size();
  return line.substr(from, line.find('"', from) - from);
}

std::string with_id(const std::string& line, const std::string& id) {
  const std::string old = line_id(line);
  std::string out = line;
  out.replace(out.find("\"id\":\"" + old + "\"") + 6, old.size(), id);
  return out;
}

struct Config {
  std::string method;
  int k = 2;
  std::int64_t steps = 0;
  int restarts = 1;
  bool mlff = false;
};

/// Kernel rung: the algorithm called directly, with the options the
/// solver adapter would derive from the request. For mlff the coarsening
/// and the coarse fusion-fission run are timed on their own as well (the
/// seeds and target mlff_partition derives, copied from mlff.cpp), so
/// refinement can be derived; the run aborts if the copy no longer
/// reproduces mlff_partition's coarse graph and search.
void kernel_rung(Tracer& tr, const ffp::Graph& g, const Config& c, int job,
                 std::uint64_t seed) {
  const auto stop = [&c] {
    ffp::StopCondition s = ffp::StopCondition::after_steps(c.steps);
    s.start();
    return s;
  };
  if (c.mlff) {
    std::uint64_t stream = seed ^ 0x6d1cff00d5eedULL;
    ffp::CoarsenOptions copt;
    copt.seed = ffp::splitmix64(stream);
    const std::int64_t target = std::max<std::int64_t>(
        std::max<std::int64_t>(std::int64_t{c.k} * 64, g.num_vertices() / 64),
        2LL * c.k);
    copt.min_vertices =
        static_cast<int>(std::min<std::int64_t>(target, g.num_vertices()));
    std::vector<ffp::CoarseLevel> chain;
    tr.span("multilevel.coarsen", job, -1,
            [&] { chain = ffp::coarsen_chain(g, copt); });
    const ffp::Graph& coarse = chain.empty() ? g : chain.back().coarse;
    ffp::FusionFissionOptions ffopt;
    ffopt.seed = ffp::splitmix64(stream);
    tr.span("core.ff_init", job, -1, [&] {
      ffp::FusionFission(coarse, c.k, ffopt).initialize();
    });
    std::optional<ffp::FusionFissionResult> ff;
    tr.span("core.ff_run", job, -1, [&] {
      ff.emplace(ffp::FusionFission(coarse, c.k, ffopt).run(stop()));
    });
    ffp::MlffOptions mopt;
    mopt.seed = seed;
    std::optional<ffp::MlffResult> res;
    tr.span("multilevel.mlff", job, -1, [&] {
      res.emplace(ffp::mlff_partition(g, c.k, mopt, stop()));
    });
    FFP_CHECK(static_cast<int>(chain.size()) == res->levels &&
                  coarse.num_vertices() == res->coarse_vertices &&
                  ff->steps == res->coarse_steps &&
                  ff->best_value == res->coarse_value,
              "the ladder's coarsen + coarse FF no longer match "
              "mlff_partition (levels ", chain.size(), " vs ", res->levels,
              ", coarse value ", ff->best_value, " vs ", res->coarse_value,
              "); update kernel_rung from mlff.cpp");
    tr.count("multilevel.levels", job, res->levels);
    tr.count("multilevel.coarse_vertices", job, res->coarse_vertices);
    tr.count("multilevel.refine_moves", job,
             static_cast<double>(res->refine_moves));
    tr.count("core.steps", job, static_cast<double>(res->coarse_steps));
    return;
  }
  ffp::FusionFissionOptions opt;
  opt.seed = c.restarts > 1 ? ffp::PortfolioRunner::seed_stream(seed, c.restarts)[0]
                            : seed;
  tr.span("core.ff_init", job, -1,
          [&] { ffp::FusionFission(g, c.k, opt).initialize(); });
  std::optional<ffp::FusionFissionResult> res;
  tr.span("core.ff_run", job, -1,
          [&] { res.emplace(ffp::FusionFission(g, c.k, opt).run(stop())); });
  tr.count("core.steps", job, static_cast<double>(res->steps));
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("graph", "", "Chaco graph file of the workload (required)")
      .flag("method", "fusion_fission", "registry method spec")
      .flag("k", "2", "parts")
      .flag("steps", "1000", "step budget per restart")
      .flag("restarts", "1", "portfolio restarts per job")
      .flag("budget", "1", "process thread budget (as ffp_serve --budget)")
      .flag("cache-entries", "64", "result-cache entries (as ffp_serve)")
      .flag("seeds", "", "comma-separated job seeds (required)")
      .flag("lines", "", "submit lines, one per seed, as the load generator "
                         "sends them (required)")
      .flag("state-dir", "", "durable-state directory: the engine and "
                             "session rungs run with it, and a plain engine "
                             "times the difference (empty = no persistence)")
      .flag("out", "", "span JSON output path (required)")
      .toggle("load-graph", "time read_chaco_file (the workload submits by "
                            "graph_file)");
  try {
    args.parse(argc, argv);
    Config c;
    c.method = args.get("method");
    c.k = static_cast<int>(args.get_int("k"));
    c.steps = args.get_int("steps");
    c.restarts = static_cast<int>(args.get_int("restarts"));
    c.mlff = ffp::SolverRegistry::split_spec(c.method).first == "mlff";
    const std::vector<std::uint64_t> seeds = parse_seeds(args.get("seeds"));
    const std::vector<std::string> lines = read_lines(args.get("lines"));
    FFP_CHECK(lines.size() == seeds.size(), "--lines needs one line per seed");
    const std::string path = args.get("graph");
    const std::string state_dir = args.get("state-dir");
    const auto cache = static_cast<std::size_t>(args.get_int("cache-entries"));
    ffp::ThreadBudget::set_process_total(
        static_cast<unsigned>(args.get_int("budget")));

    Tracer tr;
    auto g = std::make_shared<const ffp::Graph>(ffp::read_chaco_file(path));
    const ffp::SolverPtr solver = ffp::make_solver(c.method);

    ffp::api::EngineOptions eopt;
    eopt.cache_capacity = cache;
    ffp::api::EngineOptions durable_opt = eopt;
    durable_opt.state_dir = state_dir.empty() ? "" : state_dir + "/engine";
    ffp::api::Engine engine(durable_opt);
    std::unique_ptr<ffp::api::Engine> plain;
    if (!state_dir.empty()) plain = std::make_unique<ffp::api::Engine>(eopt);
    ffp::api::EngineOptions admit_opt;
    admit_opt.cache_capacity = 0;
    ffp::api::Engine admit_engine(admit_opt);

    ffp::ServiceOptions sopt;
    sopt.cache_capacity = cache;
    sopt.state_dir = state_dir.empty() ? "" : state_dir + "/session";
    ffp::ServiceHost host(sopt);
    std::string last_line;
    ffp::SessionPolicy policy;
    policy.teardown_wait_ms = 0;
    ffp::ServiceSession session(
        host, [&last_line](const std::string& line) { last_line = line; },
        policy);

    for (std::size_t j = 0; j < seeds.size(); ++j) {
      const int job = static_cast<int>(j);
      const std::uint64_t seed = seeds[j];
      if (args.get_bool("load-graph")) {
        tr.span("graph.load", job, -1, [&] { (void)ffp::read_chaco_file(path); });
      }
      tr.span("api.digest", job, -1, [&] { g_sink = ffp::api::graph_digest(*g); });

      kernel_rung(tr, *g, c, job, seed);

      // Solver rung: every restart of the job, serially, through the
      // registry-built solver (the sum is the portfolio's serial work).
      ffp::SolverRequest request;
      request.k = c.k;
      request.stop = ffp::StopCondition::after_steps(c.steps);
      request.budget = &ffp::ThreadBudget::process();
      const std::vector<std::uint64_t> restart_seeds =
          c.restarts > 1 ? ffp::PortfolioRunner::seed_stream(seed, c.restarts)
                         : std::vector<std::uint64_t>{seed};
      const int serial = tr.begin("solver.serial_restarts", job);
      for (std::size_t r = 0; r < restart_seeds.size(); ++r) {
        request.seed = restart_seeds[r];
        std::optional<ffp::SolverResult> res;
        tr.span("solver.run", job, serial,
                [&] { res.emplace(solver->run(*g, request)); });
        if (r == 0) {
          for (const char* name : {"fusions", "fissions", "reheats"}) {
            tr.count(std::string("core.") + name, job, res->stat(name));
          }
        }
      }
      tr.end(serial);

      if (c.restarts > 1) {
        ffp::PortfolioOptions popt;
        popt.restarts = c.restarts;
        popt.budget = &ffp::ThreadBudget::process();
        request.seed = seed;
        tr.span("solver.portfolio", job, -1, [&] {
          (void)ffp::PortfolioRunner(solver, popt).run(*g, request);
        });
      }

      // Engine rung: a cache miss submitted and waited on, then the same
      // spec again (a cache hit).
      ffp::api::SolveSpec spec;
      spec.method = c.method;
      spec.k = c.k;
      spec.seed = seed;
      spec.steps = c.steps;
      spec.restarts = c.restarts;
      const auto problem = ffp::api::Problem::from_shared(g);
      ffp::JobStatus status;
      const int eng = tr.begin("api.engine", job);
      ffp::api::SolveHandle handle;
      tr.span("api.submit_miss", job, eng,
              [&] { handle = engine.submit(problem, spec); });
      // Scheduler hand-off: from submit's return to the terminal status,
      // minus the solve itself (submit's own cost is api.submit_miss).
      const WallTimer waited;
      status = handle.wait();
      tr.count("service.queue_wait_ms", job,
               waited.elapsed_millis() - status.seconds * 1e3);
      tr.end(eng);
      FFP_CHECK(status.result != nullptr, "engine solve failed: ", status.error);
      tr.span("api.submit_hit", job, -1, [&] {
        FFP_CHECK(engine.submit(ffp::api::Problem::from_shared(g), spec).cached(),
                  "repeat submit missed the cache");
      });
      std::string result_line;
      tr.span("service.format", job, -1, [&] {
        result_line = ffp::format_terminal("j" + std::to_string(job), status);
      });
      tr.count("service.result_kb", job, result_line.size() / 1024.0);
      tr.span("evolve.admit", job, -1, [&] {
        admit_engine.archive_admit(problem.digest(), c.k,
                                   ffp::ObjectiveKind::MinMaxCut,
                                   status.result->best.assignment(),
                                   status.result->best_value);
      });
      if (plain != nullptr) {
        // Durable minus plain solve of one fresh spec each; the order
        // alternates so drift cancels.
        ffp::api::SolveSpec fresh = spec;
        fresh.seed = seed + 0x9e3779b9ULL;
        const bool durable_first = job % 2 == 0;
        for (int pass = 0; pass < 2; ++pass) {
          const bool durable = (pass == 0) == durable_first;
          ffp::api::Engine& e = durable ? engine : *plain;
          tr.span(durable ? "persist.solve_durable" : "persist.solve_plain",
                  job, -1, [&] { (void)e.solve(problem, fresh); });
        }
      }

      // Session rung: the load generator's own submit line, then its result
      // op, through handle_line; then the same spec under a new id (a hit).
      const std::string& line = lines[j];
      tr.count("service.request_kb", job, line.size() / 1024.0);
      tr.span("service.parse", job, -1, [&] {
        g_sink = ffp::parse_request(line, sopt.limits).spec.seed;
      });
      for (const char* phase : {"miss", "hit"}) {
        const std::string id = line_id(line) + (phase[0] == 'h' ? "h" : "");
        const std::string submit = with_id(line, id);
        const std::string result = "{\"op\":\"result\",\"id\":\"" + id + "\"}";
        tr.span(std::string("service.session_") + phase, job, -1, [&] {
          session.handle_line(submit);
          session.handle_line(result);
        });
        FFP_CHECK(ffp::starts_with(last_line, "{\"event\":\"result\""),
                  "session ", phase, " gave: ", last_line.substr(0, 200));
      }
    }
    tr.write(args.get("out"));
    return 0;
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "perfbench_ladder: %s\n", e.what());
    return 1;
  }
}
