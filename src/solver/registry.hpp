// Name-based solver construction, so CLIs, benches and config files build
// solvers from one uniform string form:
//
//   "fusion_fission"                          — defaults
//   "spectral:engine=rqi,arity=oct,kl=true"   — key=value options
//
// Factories read options through `SolverOptions`, which tracks which keys
// were consumed; `create()` rejects specs with unknown keys (typos fail
// loudly instead of silently running defaults). The builtin registry covers
// every algorithm family in the repo; `table1_methods()` (benchlib) and the
// `ffp_part` tool are both built on top of it.
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
  /// ffp::Error on malformed pairs or duplicate keys.
  static SolverOptions parse(std::string_view text);

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  bool empty() const { return values_.empty(); }

  std::string get_string(const std::string& key, std::string fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
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
  /// whitespace gone — the canonical text canonical_spec() builds on.
  std::string canonical_text() const;

  /// Forgets which keys were read (the registry calls this before handing
  /// the options to a factory, so reuse across create() calls is safe).
  void reset_consumption() const { read_.clear(); }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

class SolverRegistry {
 public:
  using Factory = std::function<SolverPtr(const SolverOptions&)>;

  /// Registers a factory. Throws on duplicate names.
  void add(std::string name, std::string help, Factory factory);

  bool contains(std::string_view name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// One-line description for a registered name (throws if unknown).
  const std::string& help(std::string_view name) const;

  /// Builds a solver by name. Throws ffp::Error on unknown names (listing
  /// what is available) and on unknown option keys.
  SolverPtr create(std::string_view name,
                   const SolverOptions& options = {}) const;

  /// Builds from a full spec: `name` or `name:key=value,key=value` (a
  /// whitespace separator is accepted in place of the colon when the tail
  /// contains key=value pairs).
  SolverPtr create_from_spec(std::string_view spec) const;

  /// Splits a spec into {name, options text}. Shared by create_from_spec
  /// and canonical_spec so the two can never disagree on the grammar.
  static std::pair<std::string_view, std::string_view> split_spec(
      std::string_view spec);

  /// Re-emits already-parsed spec pieces in canonical form (`name` or
  /// `name:key=value,...`, keys sorted). The single normalization emitter
  /// behind canonical_spec() AND api::SolveSpec::resolve() — callers must
  /// have validated the pieces (create()) first.
  static std::string canonical_join(std::string_view name,
                                    const SolverOptions& options);

  /// THE one place spec strings are normalized: validates the spec end to
  /// end (unknown names, unknown/duplicate keys, and bad values all throw)
  /// and returns `name` or `name:key=value,...` with keys sorted and
  /// whitespace stripped — so `fusion_fission nbt=800` and
  /// `fusion_fission: nbt=800 ,` resolve and cache identically.
  std::string canonical_spec(std::string_view spec) const;

  /// The process-wide registry with every built-in solver registered.
  static const SolverRegistry& builtin();

 private:
  std::map<std::string, std::pair<std::string, Factory>, std::less<>> entries_;
};

/// Convenience: `builtin().create_from_spec(spec)`.
SolverPtr make_solver(std::string_view spec);

}  // namespace ffp
