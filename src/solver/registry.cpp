#include "solver/registry.hpp"

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
        FFP_CHECK(eq != std::string_view::npos && eq > 0,
                  "bad solver option '", std::string(pair),
                  "' (expected key=value)");
        const std::string key(trim(pair.substr(0, eq)));
        const std::string value(trim(pair.substr(eq + 1)));
        FFP_CHECK(!out.values_.count(key), "duplicate solver option '", key,
                  "'");
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
  FFP_CHECK(v.has_value(), "option '", key, "' expects a number, got '", text,
            "'");
  return *v;
}

std::int64_t SolverOptions::get_int(const std::string& key,
                                    std::int64_t fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get_string(key, "");
  const auto v = parse_int(text);
  FFP_CHECK(v.has_value(), "option '", key, "' expects an integer, got '",
            text, "'");
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

void SolverRegistry::add(std::string name, std::string help, Factory factory) {
  FFP_CHECK(!entries_.count(name), "duplicate solver name '", name, "'");
  entries_[std::move(name)] = {std::move(help), std::move(factory)};
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
  return it->second.first;
}

SolverPtr SolverRegistry::create(std::string_view name,
                                 const SolverOptions& options) const {
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
  // A SolverOptions may be tried against several solvers; consumption only
  // counts reads made by THIS factory, or unknown-key detection would go
  // silent on the second create().
  options.reset_consumption();
  SolverPtr solver = it->second.second(options);
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
  return solver;
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

SolverPtr SolverRegistry::create_from_spec(std::string_view spec) const {
  const auto [name, opts] = split_spec(spec);
  return create(name, SolverOptions::parse(opts));
}

std::string SolverRegistry::canonical_join(std::string_view name,
                                           const SolverOptions& options) {
  std::string out(name);
  const std::string text = options.canonical_text();
  if (!text.empty()) {
    out += ':';
    out += text;
  }
  return out;
}

std::string SolverRegistry::canonical_spec(std::string_view spec) const {
  const auto [name, opts_text] = split_spec(spec);
  const SolverOptions options = SolverOptions::parse(opts_text);
  // Constructing the solver validates the name, every option key, and every
  // option value — a spec only canonicalizes if it actually resolves.
  (void)create(name, options);
  return canonical_join(name, options);
}

namespace {

SectionArity parse_arity(const SolverOptions& o, SectionArity fallback) {
  return o.get_enum<SectionArity>(
      "arity", fallback,
      {{"bi", SectionArity::Bisection},
       {"quad", SectionArity::Quadrisection},
       {"oct", SectionArity::Octasection}});
}

SolverRegistry make_builtin() {
  SolverRegistry r;

  r.add("fusion_fission",
        "the paper's fusion-fission metaheuristic (tmax, tmin, nbt, "
        "choice_slope, choice_offset, law_delta, use_laws, "
        "percolation_fission, scaling=binding|linear|identity)",
        [](const SolverOptions& o) -> SolverPtr {
          FusionFissionOptions opt;
          opt.tmax = o.get_double("tmax", opt.tmax);
          opt.tmin = o.get_double("tmin", opt.tmin);
          opt.nbt = static_cast<int>(o.get_int("nbt", opt.nbt));
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
          return std::make_shared<FusionFissionSolver>(opt);
        });

  r.add("mlff",
        "multilevel fusion-fission hybrid for large graphs: coarsen to "
        "coarse_n vertices (0 = max(k*64, n/64)), run full fusion-fission "
        "on the coarse graph, project back with boundary refinement bursts "
        "(refine_steps at the coarsest projection, halving toward the fine "
        "levels). Options: coarse_n, refine_steps, matching=heavy|random",
        [](const SolverOptions& o) -> SolverPtr {
          MlffOptions opt;
          opt.coarse_n = static_cast<int>(o.get_int("coarse_n", opt.coarse_n));
          FFP_CHECK(opt.coarse_n >= 0, "mlff coarse_n must be >= 0");
          opt.refine_steps = o.get_int("refine_steps", opt.refine_steps);
          FFP_CHECK(opt.refine_steps >= 0, "mlff refine_steps must be >= 0");
          opt.matching = o.get_enum<MatchingKind>(
              "matching", opt.matching,
              {{"heavy", MatchingKind::HeavyEdge},
               {"random", MatchingKind::Random}});
          return std::make_shared<MlffSolver>(opt);
        });

  r.add("annealing",
        "simulated annealing from a percolation start (tmax, tmin_fraction, "
        "cooling, equilibrium, high_temp_fraction)",
        [](const SolverOptions& o) -> SolverPtr {
          AnnealingOptions opt;
          opt.tmax = o.get_double("tmax", opt.tmax);
          opt.tmin_fraction = o.get_double("tmin_fraction", opt.tmin_fraction);
          opt.cooling = o.get_double("cooling", opt.cooling);
          opt.equilibrium_rejections = static_cast<int>(
              o.get_int("equilibrium", opt.equilibrium_rejections));
          opt.high_temp_fraction =
              o.get_double("high_temp_fraction", opt.high_temp_fraction);
          return std::make_shared<AnnealingSolver>(opt);
        });

  r.add("ant_colony",
        "competing ant colonies from a percolation start (ants, evaporation, "
        "deposit, explore_bonus, alpha, beta, walk_length)",
        [](const SolverOptions& o) -> SolverPtr {
          AntColonyOptions opt;
          opt.ants_per_colony =
              static_cast<int>(o.get_int("ants", opt.ants_per_colony));
          opt.evaporation = o.get_double("evaporation", opt.evaporation);
          opt.deposit = o.get_double("deposit", opt.deposit);
          opt.explore_bonus = o.get_double("explore_bonus", opt.explore_bonus);
          opt.alpha = o.get_double("alpha", opt.alpha);
          opt.beta = o.get_double("beta", opt.beta);
          opt.walk_length =
              static_cast<int>(o.get_int("walk_length", opt.walk_length));
          return std::make_shared<AntColonySolver>(opt);
        });

  r.add("multilevel",
        "multilevel partitioning (arity=bi|quad|oct, initial=spectral|greedy, "
        "coarsest, max_imbalance, final_refine)",
        [](const SolverOptions& o) -> SolverPtr {
          MultilevelOptions opt;
          opt.arity = parse_arity(o, opt.arity);
          opt.initial = o.get_enum<InitialPartitioner>(
              "initial", opt.initial,
              {{"spectral", InitialPartitioner::SpectralBisection},
               {"greedy", InitialPartitioner::GreedyGrowing}});
          opt.coarsest_vertices =
              static_cast<int>(o.get_int("coarsest", opt.coarsest_vertices));
          opt.max_imbalance = o.get_double("max_imbalance", opt.max_imbalance);
          opt.final_kway_refine =
              o.get_bool("final_refine", opt.final_kway_refine);
          return std::make_shared<MultilevelSolver>(opt);
        });

  r.add("spectral",
        "recursive spectral partitioning (engine=lanczos|rqi, "
        "arity=bi|quad|oct, kl, problem=combinatorial|normalized, "
        "max_imbalance, tolerance, final_refine)",
        [](const SolverOptions& o) -> SolverPtr {
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
          return std::make_shared<SpectralSolver>(opt, final_refine);
        });

  r.add("linear",
        "Chaco's linear scheme (arity=2|8, kl)",
        [](const SolverOptions& o) -> SolverPtr {
          LinearOptions opt;
          opt.arity = static_cast<int>(o.get_int("arity", opt.arity));
          FFP_CHECK(opt.arity == 2 || opt.arity == 4 || opt.arity == 8,
                    "linear arity must be 2, 4 or 8, got ", opt.arity);
          opt.kl_refine = o.get_bool("kl", opt.kl_refine);
          return std::make_shared<LinearSolver>(opt);
        });

  r.add("percolation",
        "standalone percolation partitioning (max_rounds)",
        [](const SolverOptions& o) -> SolverPtr {
          PercolationOptions opt;
          opt.max_rounds =
              static_cast<int>(o.get_int("max_rounds", opt.max_rounds));
          return std::make_shared<PercolationSolver>(opt);
        });

  return r;
}

}  // namespace

const SolverRegistry& SolverRegistry::builtin() {
  static const SolverRegistry r = make_builtin();
  return r;
}

SolverPtr make_solver(std::string_view spec) {
  return SolverRegistry::builtin().create_from_spec(spec);
}

}  // namespace ffp
