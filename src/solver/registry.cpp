#include "solver/registry.hpp"

#include <cstdint>
#include <limits>

#include "core/fusion_fission.hpp"
#include "metaheuristics/annealing.hpp"
#include "metaheuristics/ant_colony.hpp"
#include "metaheuristics/percolation.hpp"
#include "multilevel/mlff.hpp"
#include "multilevel/multilevel.hpp"
#include "refine/kway_fm.hpp"
#include "spectral/linear_partition.hpp"
#include "spectral/spectral_partition.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ffp {

namespace {

bool is_spec_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// One comma-delimited piece may hold several whitespace-separated pairs
/// ("nbt=800 tmax=2") or a single pair with cosmetic spaces around '='
/// ("beta = x") — disambiguated by counting '=' signs.
std::vector<std::string_view> split_pairs(std::string_view piece) {
  std::size_t equals = 0;
  for (char c : piece) equals += c == '=' ? 1u : 0u;
  if (equals <= 1) return {piece};
  std::vector<std::string_view> pairs;
  std::size_t i = 0;
  while (i < piece.size()) {
    while (i < piece.size() && is_spec_space(piece[i])) ++i;
    std::size_t j = i;
    while (j < piece.size() && !is_spec_space(piece[j])) ++j;
    if (j > i) pairs.push_back(piece.substr(i, j - i));
    i = j;
  }
  return pairs;
}

}  // namespace

SolverOptions SolverOptions::parse(std::string_view text) {
  SolverOptions out;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = text.find(',', i);
    if (j == std::string_view::npos) j = text.size();
    const std::string_view piece = trim(text.substr(i, j - i));
    if (!piece.empty()) {
      for (const std::string_view pair : split_pairs(piece)) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos || eq == 0) {
          throw Error("bad solver option '" + std::string(pair) +
                      "' (expected key=value)");
        }
        const std::string key(trim(pair.substr(0, eq)));
        const std::string value(trim(pair.substr(eq + 1)));
        if (out.values_.count(key)) {
          throw Error("duplicate solver option '" + key + "'");
        }
        out.values_[key] = value;
      }
    }
    i = j + 1;
  }
  return out;
}

std::string SolverOptions::canonical_text() const {
  std::string out;
  for (const auto& [key, value] : values_) {  // std::map: sorted by key
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string SolverOptions::get_string(const std::string& key,
                                      std::string fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  read_.insert(key);
  return it->second;
}

double SolverOptions::get_double(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get_string(key, "");
  const auto v = parse_double(text);
  if (!v.has_value()) {
    throw Error("option '" + key + "' expects a number, got '" + text + "'");
  }
  return *v;
}

std::int64_t SolverOptions::get_int(const std::string& key,
                                    std::int64_t fallback, std::int64_t lo,
                                    std::int64_t hi) const {
  if (!has(key)) return fallback;
  const std::string text = get_string(key, "");
  const auto v = parse_int(text);
  if (!v.has_value()) {
    throw Error("option '" + key + "' expects an integer, got '" + text +
                "'");
  }
  if (*v < lo || *v > hi) {
    throw Error("option '" + key + "' must be " +
                (hi == INT64_MAX ? ">= " + std::to_string(lo)
                                 : "in [" + std::to_string(lo) + ", " +
                                       std::to_string(hi) + "]") +
                ", got " + text);
  }
  return *v;
}

bool SolverOptions::get_bool(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get_string(key, "");
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  throw Error("option '" + key + "' expects a boolean, got '" + text + "'");
}

std::vector<std::string> SolverOptions::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!read_.count(key)) out.push_back(key);
  }
  return out;
}

bool SolverRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    out.push_back(name);
  }
  return out;
}

const std::string& SolverRegistry::help(std::string_view name) const {
  const auto it = entries_.find(name);
  FFP_CHECK(it != entries_.end(), "unknown solver '", std::string(name), "'");
  return it->second.help;
}

std::pair<std::string_view, std::string_view> SolverRegistry::split_spec(
    std::string_view spec) {
  const std::size_t colon = spec.find(':');
  if (colon != std::string_view::npos) {
    return {trim(spec.substr(0, colon)), spec.substr(colon + 1)};
  }
  // Whitespace form ("fusion_fission nbt=800"): only split when the tail
  // actually looks like options — otherwise multi-word names keep reporting
  // "unknown solver '<whole string>'" instead of a misleading option error.
  const std::string_view trimmed = trim(spec);
  for (std::size_t i = 0; i < trimmed.size(); ++i) {
    if (is_spec_space(trimmed[i])) {
      const std::string_view tail = trimmed.substr(i);
      if (tail.find('=') != std::string_view::npos) {
        return {trim(trimmed.substr(0, i)), tail};
      }
      break;
    }
  }
  return {trimmed, {}};
}

/// Runs a family and does what every family's run shares: the timer, the
/// armed stop, `seconds`, and a direct family's objective value.
class SolverRegistry::FamilySolver final : public Solver {
 public:
  FamilySolver(std::string name, const Family& family, Run run)
      : name_(std::move(name)),
        metaheuristic_(family.metaheuristic),
        evolve_(family.evolve),
        run_(std::move(run)) {}

  std::string name() const override { return name_; }
  bool is_metaheuristic() const override { return metaheuristic_; }
  EvolveSupport evolve_support() const override { return evolve_; }

  SolverResult run(const Graph& g,
                   const SolverRequest& request) const override {
    WallTimer timer;
    // A private copy of the stop, armed here: the budget clock starts when
    // this run starts, not when the request was built (portfolio restarts
    // may be queued long after the request exists).
    StopCondition stop = request.stop;
    stop.start();
    SolverResult out = run_(g, request, stop);
    if (!metaheuristic_) {
      out.best_value = objective(request.objective).evaluate(out.best);
    }
    out.seconds = timer.elapsed_seconds();
    return out;
  }

 private:
  std::string name_;
  bool metaheuristic_;
  EvolveSupport evolve_;
  Run run_;
};

ResolvedSolver SolverRegistry::resolve(std::string_view spec) const {
  const auto [name, opts_text] = split_spec(spec);
  const SolverOptions options = SolverOptions::parse(opts_text);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw Error("unknown solver '" + std::string(name) + "' (available: " +
                known + ")");
  }
  // Parsing validates every option value; what it left unread is a typo.
  Run run = it->second.parse(options);
  const auto unread = options.unread_keys();
  if (!unread.empty()) {
    std::string keys;
    for (const auto& k : unread) {
      if (!keys.empty()) keys += ", ";
      keys += k;
    }
    throw Error("unknown option(s) for solver '" + std::string(name) + "': " +
                keys);
  }
  std::string canonical(name);
  const std::string text = options.canonical_text();
  if (!text.empty()) {
    canonical += ':';
    canonical += text;
  }
  return {std::make_shared<const FamilySolver>(it->first, it->second,
                                               std::move(run)),
          std::move(canonical)};
}

namespace {

/// The upper bound of every option that lands in an int.
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Rejects a real-valued option outside its range with a plain error
/// naming it; the kernels' own checks stay as invariants.
void require(bool in_range, const char* key, const std::string& range,
             double got) {
  if (!in_range) {
    throw Error(format("option '%s' must be %s, got %g", key, range.c_str(),
                       got));
  }
}

SectionArity parse_arity(const SolverOptions& o, SectionArity fallback) {
  return o.get_enum<SectionArity>(
      "arity", fallback,
      {{"bi", SectionArity::Bisection},
       {"quad", SectionArity::Quadrisection},
       {"oct", SectionArity::Octasection}});
}

/// The percolation start annealing and the ant colonies search from, as
/// in the paper, seeded like the run.
Partition percolation_start(const Graph& g, const SolverRequest& request) {
  PercolationOptions popt;
  popt.seed = request.seed;
  return percolation_partition(g, request.k, popt);
}

/// A direct family's result: the partition alone (FamilySolver evaluates it).
SolverResult direct(Partition p) { return {std::move(p), 0.0, 0.0, {}}; }

}  // namespace

// One entry per family: its help line, metaheuristic flag, evolve support,
// and the parse step that reads its options into its run. A run copies the
// parsed options and lets the request override the seed (and, for a
// metaheuristic, the objective), so one solver serves every run and seed.
SolverRegistry::SolverRegistry() {
  // The paper's contribution (§4).
  entries_["fusion_fission"] = {
      "the paper's fusion-fission metaheuristic (tmax, tmin, nbt, "
      "choice_slope, choice_offset, choice_term_bias, law_delta, use_laws, "
      "percolation_fission, scaling=binding|linear|identity)",
      true, EvolveSupport::Crossover, [](const SolverOptions& o) -> Run {
        FusionFissionOptions opt;
        opt.tmax = o.get_double("tmax", opt.tmax);
        opt.tmin = o.get_double("tmin", opt.tmin);
        opt.nbt = static_cast<int>(o.get_int("nbt", opt.nbt, 1, kIntMax));
        opt.choice_slope = o.get_double("choice_slope", opt.choice_slope);
        opt.choice_offset = o.get_double("choice_offset", opt.choice_offset);
        opt.law_delta = o.get_double("law_delta", opt.law_delta);
        opt.choice_term_bias =
            o.get_double("choice_term_bias", opt.choice_term_bias);
        opt.use_laws = o.get_bool("use_laws", opt.use_laws);
        opt.percolation_fission =
            o.get_bool("percolation_fission", opt.percolation_fission);
        opt.scaling = o.get_enum<ScalingKind>(
            "scaling", opt.scaling,
            {{"binding", ScalingKind::BindingEnergy},
             {"linear", ScalingKind::Linear},
             {"identity", ScalingKind::Identity}});
        require(opt.tmin >= 0.0, "tmin", ">= 0", opt.tmin);
        require(opt.tmax > opt.tmin, "tmax", format("> tmin (%g)", opt.tmin),
                opt.tmax);
        require(opt.choice_offset > 0.0, "choice_offset", "> 0",
                opt.choice_offset);
        require(opt.law_delta > 0.0 && opt.law_delta < 1.0, "law_delta",
                "in (0, 1)", opt.law_delta);
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition& stop) {
          FusionFissionOptions run_opt = opt;
          run_opt.objective = request.objective;
          run_opt.seed = request.seed;
          FusionFission ff(g, request.k, run_opt);
          auto res = ff.run(stop, request.recorder, request.hooks);
          return SolverResult{
              std::move(res.best), res.best_value, 0.0,
              {{"steps", static_cast<double>(res.steps)},
               {"fusions", static_cast<double>(res.fusions)},
               {"fissions", static_cast<double>(res.fissions)},
               {"ejections", static_cast<double>(res.ejections)},
               {"reheats", static_cast<double>(res.reheats)},
               {"part_counts_visited",
                static_cast<double>(res.best_by_part_count.size())}}};
        };
      }};

  // Fusion-fission on a coarsened graph, projected back with boundary
  // refinement bursts (multilevel/mlff.hpp). The stop governs the coarse
  // search; the incumbent is only a post-hoc guard, so no crossover.
  entries_["mlff"] = {
      "multilevel fusion-fission hybrid for large graphs: coarsen to "
      "coarse_n vertices (0 = max(k*64, n/64)), run full fusion-fission "
      "on the coarse graph, project back with boundary refinement bursts "
      "(refine_steps at the coarsest projection, halving toward the fine "
      "levels). Options: coarse_n, refine_steps, matching=heavy|random",
      true, EvolveSupport::MutateOnly, [](const SolverOptions& o) -> Run {
        MlffOptions opt;
        opt.coarse_n =
            static_cast<int>(o.get_int("coarse_n", opt.coarse_n, 0, kIntMax));
        opt.refine_steps =
            o.get_int("refine_steps", opt.refine_steps, 0, INT64_MAX);
        opt.matching = o.get_enum<MatchingKind>(
            "matching", opt.matching,
            {{"heavy", MatchingKind::HeavyEdge},
             {"random", MatchingKind::Random}});
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition& stop) {
          MlffOptions run_opt = opt;
          run_opt.objective = request.objective;
          run_opt.seed = request.seed;
          auto res = mlff_partition(g, request.k, run_opt, stop,
                                    request.recorder, request.hooks);
          return SolverResult{
              std::move(res.best), res.best_value, 0.0,
              {{"levels", static_cast<double>(res.levels)},
               {"coarse_vertices", static_cast<double>(res.coarse_vertices)},
               {"steps", static_cast<double>(res.coarse_steps)},
               {"fusions", static_cast<double>(res.fusions)},
               {"fissions", static_cast<double>(res.fissions)},
               {"reheats", static_cast<double>(res.reheats)},
               {"refine_attempts", static_cast<double>(res.refine_attempts)},
               {"refine_moves", static_cast<double>(res.refine_moves)}}};
        };
      }};

  // Simulated annealing (§3.1).
  entries_["annealing"] = {
      "simulated annealing from a percolation start (tmax, tmin_fraction, "
      "cooling, equilibrium, high_temp_fraction)",
      true, EvolveSupport::None, [](const SolverOptions& o) -> Run {
        AnnealingOptions opt;
        opt.tmax = o.get_double("tmax", opt.tmax);
        opt.tmin_fraction = o.get_double("tmin_fraction", opt.tmin_fraction);
        opt.cooling = o.get_double("cooling", opt.cooling);
        opt.equilibrium_rejections = static_cast<int>(
            o.get_int("equilibrium", opt.equilibrium_rejections, 0, kIntMax));
        opt.high_temp_fraction =
            o.get_double("high_temp_fraction", opt.high_temp_fraction);
        require(opt.cooling > 0.0 && opt.cooling < 1.0, "cooling", "in (0, 1)",
                opt.cooling);
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition& stop) {
          AnnealingOptions run_opt = opt;
          run_opt.objective = request.objective;
          run_opt.seed = request.seed;
          const Partition init = percolation_start(g, request);
          SimulatedAnnealing sa(g, request.k, run_opt);
          if (request.recorder != nullptr) request.recorder->start();
          auto res = sa.run(init, stop, request.recorder);
          return SolverResult{
              std::move(res.best), res.best_value, 0.0,
              {{"steps", static_cast<double>(res.steps)},
               {"accepted", static_cast<double>(res.accepted)},
               {"coolings", static_cast<double>(res.coolings)}}};
        };
      }};

  // Competing ant colonies (§3.2).
  entries_["ant_colony"] = {
      "competing ant colonies from a percolation start (ants, evaporation, "
      "deposit, explore_bonus, alpha, beta, walk_length)",
      true, EvolveSupport::None, [](const SolverOptions& o) -> Run {
        AntColonyOptions opt;
        opt.ants_per_colony = static_cast<int>(
            o.get_int("ants", opt.ants_per_colony, 1, kIntMax));
        opt.evaporation = o.get_double("evaporation", opt.evaporation);
        opt.deposit = o.get_double("deposit", opt.deposit);
        opt.explore_bonus = o.get_double("explore_bonus", opt.explore_bonus);
        opt.alpha = o.get_double("alpha", opt.alpha);
        opt.beta = o.get_double("beta", opt.beta);
        opt.walk_length = static_cast<int>(
            o.get_int("walk_length", opt.walk_length, 0, kIntMax));
        require(opt.evaporation > 0.0 && opt.evaporation < 1.0, "evaporation",
                "in (0, 1)", opt.evaporation);
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition& stop) {
          AntColonyOptions run_opt = opt;
          run_opt.objective = request.objective;
          run_opt.seed = request.seed;
          const Partition init = percolation_start(g, request);
          AntColony aco(g, request.k, run_opt);
          if (request.recorder != nullptr) request.recorder->start();
          auto res = aco.run(init, stop, request.recorder);
          return SolverResult{
              std::move(res.best), res.best_value, 0.0,
              {{"iterations", static_cast<double>(res.iterations)}}};
        };
      }};

  // Multilevel partitioning (§2.2). Direct.
  entries_["multilevel"] = {
      "multilevel partitioning (arity=bi|quad|oct, initial=spectral|greedy, "
      "coarsest, max_imbalance, final_refine)",
      false, EvolveSupport::None, [](const SolverOptions& o) -> Run {
        MultilevelOptions opt;
        opt.arity = parse_arity(o, opt.arity);
        opt.initial = o.get_enum<InitialPartitioner>(
            "initial", opt.initial,
            {{"spectral", InitialPartitioner::SpectralBisection},
             {"greedy", InitialPartitioner::GreedyGrowing}});
        opt.coarsest_vertices = static_cast<int>(
            o.get_int("coarsest", opt.coarsest_vertices, 2, kIntMax));
        opt.max_imbalance = o.get_double("max_imbalance", opt.max_imbalance);
        opt.final_kway_refine =
            o.get_bool("final_refine", opt.final_kway_refine);
        require(opt.max_imbalance >= 1.0, "max_imbalance", ">= 1",
                opt.max_imbalance);
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition&) {
          MultilevelOptions run_opt = opt;
          run_opt.seed = request.seed;
          return direct(multilevel_partition(g, request.k, run_opt));
        };
      }};

  // Recursive spectral partitioning (§2.1). Direct. `final_refine` applies
  // the Chaco REFINE_PARTITION analog after the recursion, exactly as the
  // Table-1 protocol does.
  entries_["spectral"] = {
      "recursive spectral partitioning (engine=lanczos|rqi, "
      "arity=bi|quad|oct, kl, problem=combinatorial|normalized, "
      "max_imbalance, tolerance, final_refine)",
      false, EvolveSupport::None, [](const SolverOptions& o) -> Run {
        SpectralOptions opt;
        opt.engine = o.get_enum<FiedlerEngine>(
            "engine", opt.engine,
            {{"lanczos", FiedlerEngine::Lanczos},
             {"rqi", FiedlerEngine::MultilevelRqi}});
        opt.problem = o.get_enum<SpectralProblem>(
            "problem", opt.problem,
            {{"combinatorial", SpectralProblem::Combinatorial},
             {"normalized", SpectralProblem::Normalized}});
        opt.arity = parse_arity(o, opt.arity);
        opt.kl_refine = o.get_bool("kl", opt.kl_refine);
        opt.max_imbalance = o.get_double("max_imbalance", opt.max_imbalance);
        opt.tolerance = o.get_double("tolerance", opt.tolerance);
        const bool final_refine = o.get_bool("final_refine", true);
        require(opt.max_imbalance >= 1.0, "max_imbalance", ">= 1",
                opt.max_imbalance);
        require(opt.tolerance > 0.0, "tolerance", "> 0", opt.tolerance);
        return [opt, final_refine](const Graph& g,
                                   const SolverRequest& request,
                                   const StopCondition&) {
          SpectralOptions run_opt = opt;
          run_opt.seed = request.seed;
          auto p = spectral_partition(g, request.k, run_opt);
          if (final_refine) {
            // The Table-1 seed derivation, kept bit-for-bit so the
            // reproduced rows don't shift.
            Rng rng(request.seed ^ 0xfeed);
            KwayFmOptions fm;
            fm.max_imbalance = 1.10;
            kway_fm_refine(p, objective(ObjectiveKind::Cut), fm, rng);
          }
          return direct(std::move(p));
        };
      }};

  // Chaco's linear scheme, plain or KL-recursive. Direct.
  entries_["linear"] = {
      "Chaco's linear scheme (arity=2|4|8, kl)", false, EvolveSupport::None,
      [](const SolverOptions& o) -> Run {
        LinearOptions opt;
        opt.arity = static_cast<int>(o.get_int("arity", opt.arity, 2, 8));
        if (opt.arity != 2 && opt.arity != 4 && opt.arity != 8) {
          throw Error("option 'arity' must be 2, 4 or 8, got " +
                      std::to_string(opt.arity));
        }
        opt.kl_refine = o.get_bool("kl", opt.kl_refine);
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition&) {
          LinearOptions run_opt = opt;
          run_opt.seed = request.seed;
          return direct(linear_partition(g, request.k, run_opt));
        };
      }};

  // Standalone percolation partitioning (§4.4). Direct.
  entries_["percolation"] = {
      "standalone percolation partitioning (max_rounds)", false,
      EvolveSupport::None, [](const SolverOptions& o) -> Run {
        PercolationOptions opt;
        opt.max_rounds = static_cast<int>(
            o.get_int("max_rounds", opt.max_rounds, 0, kIntMax));
        return [opt](const Graph& g, const SolverRequest& request,
                     const StopCondition&) {
          PercolationOptions run_opt = opt;
          run_opt.seed = request.seed;
          return direct(percolation_partition(g, request.k, run_opt));
        };
      }};
}

const SolverRegistry& SolverRegistry::builtin() {
  static const SolverRegistry r;
  return r;
}

SolverPtr make_solver(std::string_view spec) {
  return SolverRegistry::builtin().resolve(spec).solver;
}

}  // namespace ffp
