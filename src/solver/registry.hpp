// Name-based solver construction, so CLIs, benches and config files build
// solvers from one uniform string form:
//
//   "fusion_fission"                          — defaults
//   "spectral:engine=rqi,arity=oct,kl=true"   — key=value options
//
// Each built-in family is one registry entry (registry.cpp): its help line,
// its flags, and a parse step that reads its options through
// `SolverOptions` and returns its run. `resolve()` is the one call that
// turns a spec into a solver; it rejects unknown keys (typos fail loudly
// instead of silently running defaults). `table1_methods()` (benchlib),
// `api::SolveSpec` and the `ffp_part` tool are all built on top of it.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "solver/solver.hpp"
#include "util/check.hpp"

namespace ffp {

/// Parsed `key=value,key=value` options with typed, consumption-tracked
/// access. Getter name mismatches throw; unread keys are reported by
/// unread_keys() so the registry can reject typos.
class SolverOptions {
 public:
  SolverOptions() = default;

  /// Parses "key=value,key=value" (empty string → no options). Throws
  /// ffp::Error on malformed pairs or duplicate keys. Every option error
  /// is a plain message that names the option.
  static SolverOptions parse(std::string_view text);

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  bool empty() const { return values_.empty(); }

  std::string get_string(const std::string& key, std::string fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// An integer option bounded to [lo, hi], checked before any narrowing
  /// cast, which would silently change an out-of-range value
  /// (arity=4294967298 would become 2).
  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Maps a string option through an explicit value table; throws with the
  /// valid choices listed when the value is not in the table.
  template <typename Enum>
  Enum get_enum(const std::string& key, Enum fallback,
                const std::vector<std::pair<std::string, Enum>>& table) const {
    if (!has(key)) return fallback;
    const std::string value = get_string(key, "");
    for (const auto& [name, e] : table) {
      if (name == value) return e;
    }
    std::string valid;
    for (const auto& [name, e] : table) {
      (void)e;
      if (!valid.empty()) valid += "|";
      valid += name;
    }
    throw Error("bad value '" + value + "' for option '" + key +
                "' (expected " + valid + ")");
  }

  /// Keys never touched by any getter — typos, from the registry's view.
  std::vector<std::string> unread_keys() const;

  /// The options re-emitted as `key=value,key=value` with keys sorted and
  /// whitespace gone — the canonical text resolve() builds on.
  std::string canonical_text() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// A method spec resolved: the validated solver and its canonical text.
struct ResolvedSolver {
  SolverPtr solver;
  /// `name` or `name:key=value,...` with keys sorted and whitespace
  /// stripped, so `fusion_fission nbt=800` and `fusion_fission: nbt=800 ,`
  /// resolve and cache identically.
  std::string canonical;
};

class SolverRegistry {
 public:
  /// The process-wide registry with every built-in solver family.
  static const SolverRegistry& builtin();

  bool contains(std::string_view name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// One-line description for a registered name (throws if unknown).
  const std::string& help(std::string_view name) const;

  /// THE one place a spec becomes a solver: `name` or
  /// `name:key=value,key=value` (a whitespace separator is accepted in
  /// place of the colon when the tail contains key=value pairs). Validates
  /// the spec end to end: malformed or duplicate options, unknown names
  /// (listing what is available), unknown option keys and bad values all
  /// throw ffp::Error.
  ResolvedSolver resolve(std::string_view spec) const;

  /// Splits a spec into {name, options text}.
  static std::pair<std::string_view, std::string_view> split_spec(
      std::string_view spec);

 private:
  /// A family's run, as its entry builds it from the options. It returns
  /// the partition, and for a metaheuristic its value and counters too;
  /// `stop` is the request's, already armed.
  using Run = std::function<SolverResult(
      const Graph& g, const SolverRequest& request, const StopCondition& stop)>;

  /// One solver family: all the registry knows about it.
  struct Family {
    std::string help;
    /// True for budgeted, objective-aware families; a direct family's
    /// partition is evaluated under the requested objective after its run.
    bool metaheuristic;
    EvolveSupport evolve;
    /// Reads the family's options (throwing on bad values) into its run.
    Run (*parse)(const SolverOptions& options);
  };

  /// The one Solver every family runs through (registry.cpp).
  class FamilySolver;

  SolverRegistry();  ///< registers the built-in families

  std::map<std::string, Family, std::less<>> entries_;
};

/// Convenience: `builtin().resolve(spec).solver`.
SolverPtr make_solver(std::string_view spec);

}  // namespace ffp
