// FNV-1a, 64-bit: the one hash behind durable file names, graph digests
// and shard placement.
//
// Callers pass their offset basis, and each must keep the one it has:
// the value is baked into names on disk, cache and archive keys, and the
// shard a graph_file submit routes to, so changing it would orphan
// persisted state and move keys. Durable cache entry names (api/engine),
// the graph digest (api/problem) and graph_file ring placement
// (shard/router) use kFnvBasisShort; checkpoint and population record
// names (persist/checkpoint) use the standard kFnvBasis.
#pragma once

#include <cstdint>
#include <string_view>

namespace ffp {

/// The standard FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
/// The standard basis with its last decimal digit dropped.
inline constexpr std::uint64_t kFnvBasisShort = 1469598103934665603ull;

/// Folds `bytes` into the running hash `h`.
inline std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds the eight bytes of `word`, least significant first, into `h`.
inline std::uint64_t fnv1a_word(std::uint64_t word, std::uint64_t h) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (byte * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ffp
