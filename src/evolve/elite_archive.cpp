#include "evolve/elite_archive.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "graph/io.hpp"
#include "persist/atomic_file.hpp"
#include "persist/checkpoint.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace ffp::evolve {

namespace {

/// On-disk population file format version (persist::read_records framing).
constexpr std::uint32_t kPopulationVersion = 1;

/// Vertices where two assignments disagree. Labels are compared raw: both
/// sides come out of the same solver family, which emits compacted
/// assignments, so a label permutation of the same partition is rare
/// enough that treating it as distinct only costs a little capacity.
std::size_t hamming(std::span<const int> a, std::span<const int> b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i] ? 1 : 0;
  return d;
}

std::string population_path(const std::string& dir,
                            const PopulationKey& key) {
  return persist::keyed_record_path(dir, "pop", key.digest, key.spec_text());
}

}  // namespace

std::string PopulationKey::spec_text() const {
  return "k=" + std::to_string(k) +
         "|obj=" + std::string(objective_token(objective));
}

EliteArchive::EliteArchive(ArchiveOptions options)
    : options_(std::move(options)) {
  if (!enabled()) return;
  if (!options_.dir.empty()) {
    persist::ensure_dir(options_.dir);
    load_persisted();
  }
}

bool EliteArchive::admit(const PopulationKey& key,
                         std::span<const int> assignment, double value) {
  if (!enabled() || assignment.empty()) return false;
  std::lock_guard lock(mu_);
  auto& population = populations_[key];

  // Exact duplicate: refresh its value down (ulp renderings differ across
  // runs; the archive keeps the best one) but never re-admit.
  for (Elite& e : population) {
    if (e.assignment->size() == assignment.size() &&
        std::equal(assignment.begin(), assignment.end(),
                   e.assignment->begin())) {
      if (value < e.value) {
        e.value = value;
        persist_population(key, population);
      }
      ++rejected_;
      return false;
    }
  }

  // Near-duplicate: only a strict improvement may enter, and it takes the
  // sibling's slot instead of crowding the population with one basin.
  const std::size_t near = std::max<std::size_t>(1, assignment.size() / 64);
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (population[i].assignment->size() != assignment.size()) continue;
    if (hamming(assignment, *population[i].assignment) >= near) continue;
    if (value < population[i].value) {
      population[i] = Elite{std::make_shared<const std::vector<int>>(
                                assignment.begin(), assignment.end()),
                            value, next_stamp_++};
      ++evicted_;
      ++admitted_;
      persist_population(key, population);
      return true;
    }
    ++rejected_;
    return false;
  }

  if (population.size() < options_.capacity) {
    population.push_back(Elite{std::make_shared<const std::vector<int>>(
                                   assignment.begin(), assignment.end()),
                               value, next_stamp_++});
    ++admitted_;
    persist_population(key, population);
    return true;
  }

  // Full: displace the worst (highest value; the OLDEST among equals).
  std::size_t worst = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (population[i].value > population[worst].value ||
        (population[i].value == population[worst].value &&
         population[i].stamp < population[worst].stamp)) {
      worst = i;
    }
  }
  if (value >= population[worst].value) {
    ++rejected_;
    return false;
  }
  population[worst] = Elite{std::make_shared<const std::vector<int>>(
                                assignment.begin(), assignment.end()),
                            value, next_stamp_++};
  ++evicted_;
  ++admitted_;
  persist_population(key, population);
  return true;
}

std::vector<Elite> EliteArchive::snapshot(const PopulationKey& key) {
  if (!enabled()) return {};
  std::lock_guard lock(mu_);
  ++lookups_;
  const auto it = populations_.find(key);
  if (it == populations_.end() || it->second.empty()) return {};
  ++hits_;
  std::vector<Elite> out = it->second;
  std::sort(out.begin(), out.end(), [](const Elite& a, const Elite& b) {
    return a.value != b.value ? a.value < b.value : a.stamp < b.stamp;
  });
  return out;
}

std::optional<double> EliteArchive::best_value(
    const PopulationKey& key) const {
  std::lock_guard lock(mu_);
  const auto it = populations_.find(key);
  if (it == populations_.end() || it->second.empty()) return std::nullopt;
  double best = it->second.front().value;
  for (const Elite& e : it->second) best = std::min(best, e.value);
  return best;
}

std::vector<std::pair<PopulationKey, Elite>> EliteArchive::best_elites()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<PopulationKey, Elite>> out;
  out.reserve(populations_.size());
  for (const auto& [key, population] : populations_) {
    if (population.empty()) continue;
    std::size_t best = 0;
    for (std::size_t i = 1; i < population.size(); ++i) {
      if (population[i].value < population[best].value ||
          (population[i].value == population[best].value &&
           population[i].stamp < population[best].stamp)) {
        best = i;
      }
    }
    out.emplace_back(key, population[best]);
  }
  return out;
}

ArchiveCounters EliteArchive::counters() const {
  std::lock_guard lock(mu_);
  ArchiveCounters out;
  out.admitted = admitted_;
  out.rejected = rejected_;
  out.evicted = evicted_;
  out.lookups = lookups_;
  out.hits = hits_;
  for (const auto& [key, population] : populations_) {
    out.elites += static_cast<std::int64_t>(population.size());
  }
  out.populations = static_cast<std::int64_t>(populations_.size());
  out.capacity = static_cast<std::int64_t>(options_.capacity);
  return out;
}

/// Record 0 is the population header (the file name hash is one-way, so
/// the key must be recoverable from the content); records 1..N are one
/// elite each: value, stamp, then the assignment.
void EliteArchive::persist_population(const PopulationKey& key,
                                      const std::vector<Elite>& population) {
  if (options_.dir.empty()) return;
  std::vector<std::string> records;
  records.reserve(population.size() + 1);
  records.push_back(encode_partition_record(
      {{"digest",
        format("%016llx", static_cast<unsigned long long>(key.digest))},
       {"k", std::to_string(key.k)},
       {"objective", std::string(objective_token(key.objective))}}));
  for (const Elite& e : population) {
    records.push_back(encode_partition_record(
        {{"value", real_text(e.value)},
         {"stamp", std::to_string(e.stamp)}},
        *e.assignment));
  }
  // Best-effort, like checkpoints: a full disk must not fail the solve
  // whose result is being archived.
  try {
    persist::write_records_atomic(population_path(options_.dir, key),
                                  kPopulationVersion, records);
  } catch (const std::exception&) {
  }
}

void EliteArchive::load_persisted() {
  for (const std::string& name : persist::list_dir(options_.dir)) {
    if (name.rfind("pop-", 0) != 0) continue;
    const std::string path = options_.dir + "/" + name;
    try {
      load_population_file(path);
    } catch (const std::exception&) {
      persist::remove_file(path);  // crash-only: damage reads as absent
    }
  }
}

void EliteArchive::load_population_file(const std::string& path) {
  const auto read = persist::read_records(path, kPopulationVersion);
  FFP_CHECK(!read.records.empty() && !read.truncated,
            "damaged population file");

  const PartitionRecord head = decode_partition_record(
      read.records.front(), {"digest", "k", "objective"});
  PopulationKey key;
  key.digest = head.hex("digest");
  key.k = static_cast<int>(head.integer("k", 1, INT_MAX));
  const auto objective = objective_from_name(head.text("objective"));
  FFP_CHECK(objective.has_value(), "unknown objective in population file");
  key.objective = *objective;

  std::vector<Elite> population;
  for (std::size_t i = 1;
       i < read.records.size() && population.size() < options_.capacity;
       ++i) {
    PartitionRecord record =
        decode_partition_record(read.records[i], {"value", "stamp"});
    FFP_CHECK(!record.parts.empty(), "empty elite in population file");
    record.check_parts(key.k);
    population.push_back(Elite{
        std::make_shared<const std::vector<int>>(std::move(record.parts)),
        record.real("value"),
        static_cast<std::uint64_t>(record.integer("stamp", 0, INT64_MAX))});
  }
  FFP_CHECK(!population.empty(), "population file holds no elites");
  for (const Elite& e : population) {
    next_stamp_ = std::max(next_stamp_, e.stamp + 1);
  }
  populations_[key] = std::move(population);
}

}  // namespace ffp::evolve
