#include "api/problem.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "atc/core_area.hpp"
#include "graph/generators.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp::api {

namespace {

/// A generator spec's arguments. Every error names the family and the
/// argument, and none is an FFP_CHECK: a spec is user input.
struct GeneratorArgs {
  std::string family;
  std::vector<std::string> text;  ///< the arguments as written
  std::vector<double> args;

  std::string name(std::size_t i, const char* what) const {
    return family + " argument " + std::to_string(i + 1) + " (" + what + ")";
  }

  double at(std::size_t i, const char* what) const {
    if (i >= args.size()) throw Error(name(i, what) + " is missing");
    return args[i];
  }
  /// Argument i as an integer in [lo, hi]. The range is checked on the
  /// double, before the conversion: converting a double outside the
  /// integer type's range is undefined behavior.
  std::int64_t integer(std::size_t i, const char* what, std::int64_t lo,
                       std::int64_t hi) const {
    const double v = at(i, what);
    if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
        v != std::trunc(v)) {
      throw Error(name(i, what) + " must be an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                  text[i]);
    }
    return static_cast<std::int64_t>(v);
  }
  /// Argument i as an int of at least `lo` (the family's minimum).
  int as_int(std::size_t i, const char* what, int lo = 0) const {
    return static_cast<int>(
        integer(i, what, lo, std::numeric_limits<int>::max()));
  }
  /// Argument i as a real number above `lo`.
  double above(std::size_t i, const char* what, double lo) const {
    const double v = at(i, what);
    if (!(v > lo)) {
      throw Error(name(i, what) + " must be > " + format("%g", lo) +
                  ", got " + text[i]);
    }
    return v;
  }
  std::uint64_t seed(std::size_t i) const {
    if (i >= args.size()) return 1;  // stochastic families default seed
    return static_cast<std::uint64_t>(integer(i, "seed", 0, kExactIntegers));
  }
  /// Doubles hold every integer up to 2^53 exactly.
  static constexpr std::int64_t kExactIntegers = std::int64_t{1} << 53;
};

GeneratorArgs parse_generator_args(std::string_view family,
                                   std::string_view text) {
  GeneratorArgs out;
  out.family = std::string(family);
  std::size_t i = 0;
  while (i <= text.size()) {
    std::size_t j = text.find(',', i);
    if (j == std::string_view::npos) j = text.size();
    const std::string_view token = trim(text.substr(i, j - i));
    if (!token.empty()) {
      const auto v = parse_double(token);
      if (!v.has_value()) {
        throw Error(out.family + " argument " +
                    std::to_string(out.args.size() + 1) +
                    " is not a number: '" + std::string(token) + "'");
      }
      out.text.emplace_back(token);
      out.args.push_back(*v);
    }
    i = j + 1;
  }
  return out;
}

Graph make_generated(std::string_view family, const GeneratorArgs& a) {
  // Each family's minimums are checked here, naming the argument, so no
  // spec reaches a generator's own precondition. Locals fix the order in
  // which arguments are checked, so the first bad one is named.
  if (family == "grid2d") {
    const int rows = a.as_int(0, "rows", 1);
    return make_grid2d(rows, a.as_int(1, "cols", 1));
  }
  if (family == "grid3d") {
    const int nx = a.as_int(0, "nx", 1);
    const int ny = a.as_int(1, "ny", 1);
    return make_grid3d(nx, ny, a.as_int(2, "nz", 1));
  }
  if (family == "torus") {
    const int rows = a.as_int(0, "rows", 3);
    return make_torus(rows, a.as_int(1, "cols", 3));
  }
  if (family == "path") return make_path(a.as_int(0, "n", 1));
  if (family == "cycle") return make_cycle(a.as_int(0, "n", 3));
  if (family == "complete") return make_complete(a.as_int(0, "n", 1));
  if (family == "star") return make_star(a.as_int(0, "leaves", 1));
  if (family == "barbell") {
    return make_barbell(a.as_int(0, "clique", 2),
                        a.args.size() > 1 ? a.as_int(1, "bridge") : 1);
  }
  if (family == "caterpillar") {
    return make_caterpillar(a.as_int(0, "spine", 1), a.as_int(1, "legs"));
  }
  if (family == "geometric") {
    const int n = a.as_int(0, "n", 1);
    const double radius = a.above(1, "radius", 0.0);
    return make_random_geometric(n, radius, a.seed(2));
  }
  if (family == "powerlaw") {
    const int n = a.as_int(0, "n", 2);
    const double avg_deg = a.above(1, "avg_deg", 0.0);
    const double gamma = a.above(2, "gamma", 2.0);
    return make_power_law(n, avg_deg, gamma, a.seed(3));
  }
  if (family == "random") {
    const int n = a.as_int(0, "n", 2);
    const std::int64_t max_m =
        std::min(static_cast<std::int64_t>(n) * (n - 1) / 2,
                 GeneratorArgs::kExactIntegers);
    return make_random_graph(n, a.integer(1, "m", 0, max_m), a.seed(2));
  }
  if (family == "atc") {
    CoreAreaOptions opt;
    opt.seed = a.seed(0);
    if (a.args.size() > 1) opt.n_sectors = a.as_int(1, "sectors", 8);
    if (a.args.size() > 2) {
      opt.n_edges = a.as_int(2, "edges", opt.n_sectors - 1);
    }
    return make_core_area_graph(opt).graph;
  }
  throw Error("unknown generator family '" + std::string(family) +
              "' (grid2d|grid3d|torus|path|cycle|complete|star|barbell|"
              "caterpillar|geometric|powerlaw|random|atc)");
}

bool is_generator_family(std::string_view family) {
  for (const char* known :
       {"grid2d", "grid3d", "torus", "path", "cycle", "complete", "star",
        "barbell", "caterpillar", "geometric", "powerlaw", "random", "atc"}) {
    if (family == known) return true;
  }
  return false;
}

}  // namespace

std::uint64_t graph_digest(const Graph& g) {
  // FNV-1a over machine words; weights go in by bit pattern so the digest
  // is exact, not rounded.
  std::uint64_t h = kFnvBasisShort;
  const auto mix = [&h](std::uint64_t word) { h = fnv1a_word(word, h); };
  mix(static_cast<std::uint64_t>(g.num_vertices()));
  mix(static_cast<std::uint64_t>(g.num_edges()));
  for (const ArcId x : g.xadj()) mix(static_cast<std::uint64_t>(x));
  for (const VertexId v : g.adj()) mix(static_cast<std::uint64_t>(v));
  for (const Weight w : g.arc_weights()) mix(std::bit_cast<std::uint64_t>(w));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mix(std::bit_cast<std::uint64_t>(g.vertex_weight(v)));
  }
  return h;
}

Problem Problem::from_graph(Graph g) {
  return from_shared(std::make_shared<const Graph>(std::move(g)));
}

Problem Problem::from_shared(std::shared_ptr<const Graph> g,
                             std::string source) {
  FFP_CHECK(g != nullptr, "Problem needs a graph");
  FFP_CHECK(g->num_vertices() >= 1, "Problem graph is empty");
  auto state = std::make_shared<State>();
  state->graph = std::move(g);
  state->source = std::move(source);
  return Problem(std::move(state));
}

Problem Problem::from_shared_with_digest(std::shared_ptr<const Graph> g,
                                         std::uint64_t digest,
                                         std::string source) {
  Problem out = from_shared(std::move(g), std::move(source));
  // Pre-fire the memo so digest() never rescans.
  std::call_once(out.state_->digest_once,
                 [&] { out.state_->digest = digest; });
  return out;
}

Problem Problem::viewing(const Graph& g) {
  // Aliasing shared_ptr with no ownership: share() hands out pointers that
  // never free, which is exactly the documented caller contract.
  return from_shared(std::shared_ptr<const Graph>(
                         std::shared_ptr<const void>(), &g),
                     "view");
}

Problem Problem::from_file(const std::string& path, const IoLimits& limits) {
  return from_shared(
      std::make_shared<const Graph>(read_chaco_file(path, limits)),
      "file:" + path);
}

Problem Problem::generated(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const std::string_view family = trim(spec.substr(0, colon));
  const std::string_view args_text =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  const Graph g =
      make_generated(family, parse_generator_args(family, args_text));
  Problem out = from_shared(std::make_shared<const Graph>(std::move(g)),
                            "gen:" + std::string(trim(spec)));
  return out;
}

Problem Problem::from_any(const std::string& source, const IoLimits& limits) {
  const std::size_t colon = source.find(':');
  if (colon != std::string::npos &&
      is_generator_family(trim(std::string_view(source).substr(0, colon)))) {
    return generated(source);
  }
  return from_file(source, limits);
}

const Graph& Problem::graph() const {
  FFP_CHECK(valid(), "empty Problem");
  return *state_->graph;
}

std::shared_ptr<const Graph> Problem::share() const {
  FFP_CHECK(valid(), "empty Problem");
  return state_->graph;
}

const std::string& Problem::source() const {
  FFP_CHECK(valid(), "empty Problem");
  return state_->source;
}

std::uint64_t Problem::digest() const {
  FFP_CHECK(valid(), "empty Problem");
  std::call_once(state_->digest_once,
                 [&] { state_->digest = graph_digest(*state_->graph); });
  return state_->digest;
}

}  // namespace ffp::api
