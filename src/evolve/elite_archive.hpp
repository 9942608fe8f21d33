// evolve::EliteArchive — the cross-job learning layer (KaFFPaE lever):
// a thread-safe, bounded population of the best partitions ever seen for
// each (graph digest, k, objective) population key. Every finished solve
// can feed its result back; evolve-mode portfolios draw their starting
// partitions from here (plan.hpp) so repeat traffic on the same graph
// keeps improving instead of re-solving from scratch.
//
// Admission policy (per population, capacity-bounded):
//   * exact duplicates are rejected (their recorded value is refreshed
//     down if the new rendering is lower — float summation order can
//     differ by an ulp between runs);
//   * near-duplicates at an equal-or-worse value are rejected: a
//     candidate whose assignment differs from an existing elite in fewer
//     than max(1, n/64) vertices only re-enters if it is strictly
//     better, in which case it REPLACES that elite — diversity is worth
//     more than a cluster of ulp-separated siblings (the memetic
//     crossover needs structurally distinct parents);
//   * below capacity, everything else is admitted;
//   * at capacity, the candidate must beat the worst elite (highest
//     value; ties broken by evicting the OLDEST stamp, the age-aware
//     half: a stale equal-value elite yields to fresh blood).
//
// Determinism: admission and the best-first snapshot order depend only on
// the sequence of admit() calls (values, assignments, arrival order via a
// monotone stamp), never on wall clock or thread scheduling. For a fixed
// archive state, everything downstream (plan_evolve's parent selection)
// is a pure function of the spec seed.
//
// Persistence (optional): with a directory set, each population is
// rewritten as one CRC-framed record file (persist::write_records_atomic,
// graph/io.hpp durable partition records) after every mutation and
// reloaded on construction — elites survive
// restarts exactly like PR 8's checkpoints. Damage is crash-only: an
// unreadable population file is deleted and forgotten, never trusted.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "partition/objectives.hpp"

namespace ffp::evolve {

/// What keys one elite population: same digest + k + objective means the
/// values are comparable and the assignments are interchangeable seeds.
struct PopulationKey {
  std::uint64_t digest = 0;
  int k = 0;
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;

  /// Canonical "k=..|obj=.." spec half of the key (objective_token
  /// spelling, so it round-trips through durable files).
  std::string spec_text() const;

  friend bool operator<(const PopulationKey& a, const PopulationKey& b) {
    if (a.digest != b.digest) return a.digest < b.digest;
    if (a.k != b.k) return a.k < b.k;
    return static_cast<int>(a.objective) < static_cast<int>(b.objective);
  }
  friend bool operator==(const PopulationKey& a, const PopulationKey& b) {
    return a.digest == b.digest && a.k == b.k && a.objective == b.objective;
  }
};

/// One archived partition. The assignment is shared, never copied on
/// snapshot — a selected parent costs a refcount bump.
struct Elite {
  std::shared_ptr<const std::vector<int>> assignment;
  double value = 0.0;      ///< population objective evaluated on `assignment`
  std::uint64_t stamp = 0; ///< admission order (monotone across populations)
};

struct ArchiveCounters {
  std::int64_t admitted = 0;   ///< admit() calls that changed a population
  std::int64_t rejected = 0;   ///< duplicates / not better than the worst
  std::int64_t evicted = 0;    ///< elites displaced by capacity pressure
  std::int64_t lookups = 0;    ///< snapshot() calls
  std::int64_t hits = 0;       ///< snapshots that found a non-empty population
  std::int64_t elites = 0;     ///< current total across populations
  std::int64_t populations = 0;
  std::int64_t capacity = 0;   ///< per-population bound (0 = archive off)
};

struct ArchiveOptions {
  /// Elites kept per population; 0 disables the archive entirely (admit
  /// and snapshot become no-ops, the engine skips evolve seeding).
  std::size_t capacity = 8;
  /// Persistence directory; empty = in-memory only. Created on demand.
  std::string dir;
};

class EliteArchive {
 public:
  explicit EliteArchive(ArchiveOptions options = {});

  EliteArchive(const EliteArchive&) = delete;
  EliteArchive& operator=(const EliteArchive&) = delete;

  bool enabled() const { return options_.capacity > 0; }

  /// Offers one finished partition to the population under `key`. Returns
  /// true when the population changed (see the admission policy above).
  bool admit(const PopulationKey& key, std::span<const int> assignment,
             double value);

  /// Best-first (value, then stamp) copy of the population — the order
  /// plan_evolve indexes parents by, so it must be deterministic. Counts
  /// one lookup (and a hit when non-empty).
  std::vector<Elite> snapshot(const PopulationKey& key);

  /// Lowest archived value for `key`, if any. Pure observation: no
  /// lookup/hit accounting (status probes must not skew the hit rate).
  std::optional<double> best_value(const PopulationKey& key) const;

  /// The best elite (lowest value, oldest stamp among ties) of every
  /// non-empty population — what inter-shard migration ships. Pure
  /// observation, same accounting rules as best_value().
  std::vector<std::pair<PopulationKey, Elite>> best_elites() const;

  ArchiveCounters counters() const;

 private:
  void persist_population(const PopulationKey& key,
                          const std::vector<Elite>& population);
  void load_persisted();
  /// Throws on damage; the caller deletes the file.
  void load_population_file(const std::string& path);

  ArchiveOptions options_;
  mutable std::mutex mu_;
  std::map<PopulationKey, std::vector<Elite>> populations_;
  std::uint64_t next_stamp_ = 1;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t evicted_ = 0;
  std::int64_t lookups_ = 0;
  std::int64_t hits_ = 0;
};

}  // namespace ffp::evolve
