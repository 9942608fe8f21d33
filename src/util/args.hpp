// Minimal command-line argument parser for the ffp tools: --flag value
// pairs, --switch booleans, and positional arguments, with typed access and
// a generated usage string. No external dependencies, deliberately small.
// A user's mistake throws a plain ffp::Error naming the flag; FFP_CHECK
// is kept for misuse of the parser itself.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace ffp {

class ArgParser {
 public:
  /// Registers an option before parse(). `fallback` empty string means the
  /// option is a boolean switch.
  ArgParser& flag(const std::string& name, const std::string& fallback,
                  const std::string& help) {
    FFP_CHECK(!specs_.count(name), "duplicate flag --", name);
    specs_[name] = {fallback, help, false};
    return *this;
  }
  ArgParser& toggle(const std::string& name, const std::string& help) {
    FFP_CHECK(!specs_.count(name), "duplicate flag --", name);
    specs_[name] = {"false", help, true};
    return *this;
  }

  /// Parses argv. Throws ffp::Error on unknown flags or missing values.
  void parse(int argc, const char* const* argv) {
    program_ = argc > 0 ? argv[0] : "ffp";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (starts_with(arg, "--")) {
        const std::string name(arg.substr(2));
        const auto it = specs_.find(name);
        if (it == specs_.end()) {
          throw Error("unknown flag --" + name + "\n" + usage());
        }
        if (it->second.is_toggle) {
          values_[name] = "true";
        } else {
          if (i + 1 >= argc) throw Error("missing value for --" + name);
          values_[name] = argv[++i];
        }
      } else {
        positional_.emplace_back(arg);
      }
    }
  }

  std::string get(const std::string& name) const {
    const auto spec = specs_.find(name);
    FFP_CHECK(spec != specs_.end(), "flag --", name, " was never registered");
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : spec->second.fallback;
  }

  std::int64_t get_int(const std::string& name) const {
    const auto v = parse_int(get(name));
    if (!v.has_value()) {
      throw Error("--" + name + " expects an integer, got '" + get(name) +
                  "'");
    }
    return *v;
  }

  /// get_int bounded to [lo, hi] (no hi: no upper bound), for checking
  /// before a narrowing cast, which would silently change an out-of-range
  /// value (2^32 + 2 parts would become 2).
  std::int64_t get_int(const std::string& name, std::int64_t lo,
                       std::int64_t hi = INT64_MAX) const {
    const std::int64_t v = get_int(name);
    if (v >= lo && v <= hi) return v;
    throw Error("--" + name + " must be " +
                (hi == INT64_MAX ? ">= " + std::to_string(lo)
                                 : "in [" + std::to_string(lo) + ", " +
                                       std::to_string(hi) + "]"));
  }

  double get_double(const std::string& name) const {
    const auto v = parse_double(get(name));
    if (!v.has_value()) {
      throw Error("--" + name + " expects a number, got '" + get(name) + "'");
    }
    return *v;
  }

  bool get_bool(const std::string& name) const { return get(name) == "true"; }

  bool was_set(const std::string& name) const { return values_.count(name) > 0; }

  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const {
    std::string out = "usage: " + program_ + " [flags] [args]\n";
    for (const auto& [name, spec] : specs_) {
      out += "  --" + name;
      if (!spec.is_toggle) out += " <" + (spec.fallback.empty() ? std::string("value") : spec.fallback) + ">";
      out += "  " + spec.help + "\n";
    }
    return out;
  }

 private:
  struct Spec {
    std::string fallback;
    std::string help;
    bool is_toggle = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string program_ = "ffp";
};

}  // namespace ffp
