// Minimal strict JSON for the service protocol (service/protocol.hpp).
//
// The parser is written for UNTRUSTED input: hard depth and size limits,
// duplicate object keys rejected, trailing garbage rejected, every error an
// ffp::Error with a byte offset — never an FFP_CHECK-style invariant trip
// and never unbounded recursion or allocation driven by the attacker.
// Numbers are parsed as doubles with the exact-int64 case preserved
// (partition ids, vertex counts); strings handle the standard escapes
// including \uXXXX (encoded back to UTF-8).
//
// Deliberately small: objects, arrays, strings, numbers, bools, null —
// exactly what line-delimited request/response messages need. Not a
// general-purpose DOM; documents are a few KB of control data (graphs
// travel by file path or as flat edge arrays).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/net.hpp"
#include "util/check.hpp"

namespace ffp {

/// Defaults are the request limits: one request line's worth of bytes.
struct JsonLimits {
  std::size_t max_bytes = kMaxRequestLineBytes;  ///< document ceiling
  int max_depth = 32;                 ///< nesting ceiling
  std::size_t max_elements = 1u << 24;  ///< total values in the document
};

/// Limits for a whole response line: the response ceiling, with one
/// element per byte at most (a result carries one per vertex).
inline JsonLimits response_json_limits() {
  return {kMaxResponseLineBytes, 32, kMaxResponseLineBytes};
}

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  /// Parses exactly one JSON document (trailing whitespace allowed, any
  /// other trailing bytes rejected). Throws ffp::Error with a byte offset.
  static JsonValue parse(std::string_view text, const JsonLimits& limits = {});

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const;
  double as_number() const;
  /// The number as an exact int64; throws if the value is not a number
  /// that was written as an integer within int64 range.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<Member>& as_object() const;

  /// Object member by key, or nullptr when absent (throws on non-objects).
  const JsonValue* find(std::string_view key) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> members_;

  friend class JsonParser;
};

/// Appends `s` JSON-escaped (quotes included) to `out`.
void json_append_quoted(std::string& out, std::string_view s);

}  // namespace ffp
