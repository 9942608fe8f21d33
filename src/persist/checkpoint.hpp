// Durable anytime-best solve checkpoints, and the keyed record file names
// checkpoints and elite populations share.
//
// A checkpoint is the best-at-k partition a metaheuristic has seen so
// far, written atomically (persist::atomic_write_file + CRC framing) so a
// crash mid-write leaves either the previous checkpoint or the new one —
// never a torn file. Its body is one durable partition record
// (graph/io.hpp): `k`, `value`, then the parts. Loading is crash-only:
// anything damaged, truncated or unparsable reads as "no checkpoint" and
// the solve simply starts cold, because a checkpoint is an optimization,
// never an obligation.
//
// Files are keyed by graph digest + the spec's canonical checkpoint key
// (api::SolveSpec::checkpoint_key), so a resumed run maps to exactly the
// file its predecessor wrote.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ffp::persist {

inline constexpr std::uint32_t kCheckpointVersion = 1;

struct Checkpoint {
  int k = 0;
  double value = 0.0;  ///< objective of `assignment` (exact round-trip)
  std::vector<int> assignment;
};

/// Deterministic record-file path for (graph digest, canonical key) under
/// `dir`: "<dir>/<stem>-<fnv1a64(key, digest)>.rec". Any process computes
/// the same path for the same identity — checkpoints use stem "ck", the
/// evolve archive's populations use stem "pop".
std::string keyed_record_path(const std::string& dir, std::string_view stem,
                              std::uint64_t graph_digest,
                              const std::string& key);

/// The checkpoint file for (graph digest, canonical solve key) under
/// `dir`. Deterministic — any process computes the same path.
std::string checkpoint_path(const std::string& dir,
                            std::uint64_t graph_digest,
                            const std::string& solve_key);

/// Atomic durable write. Throws on I/O failure.
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// std::nullopt when the file is missing, torn, CRC-damaged or
/// unparsable. Never throws for on-disk damage.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

}  // namespace ffp::persist
