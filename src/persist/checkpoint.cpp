#include "persist/checkpoint.hpp"

#include <climits>

#include "graph/io.hpp"
#include "persist/atomic_file.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp::persist {

std::string keyed_record_path(const std::string& dir, std::string_view stem,
                              std::uint64_t graph_digest,
                              const std::string& key) {
  const std::uint64_t h = fnv1a_word(graph_digest, fnv1a(key, kFnvBasis));
  return dir + "/" + std::string(stem) +
         format("-%016llx.rec", static_cast<unsigned long long>(h));
}

std::string checkpoint_path(const std::string& dir,
                            std::uint64_t graph_digest,
                            const std::string& solve_key) {
  return keyed_record_path(dir, "ck", graph_digest, solve_key);
}

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  write_records_atomic(
      path, kCheckpointVersion,
      {encode_partition_record({{"k", std::to_string(checkpoint.k)},
                                {"value", real_text(checkpoint.value)}},
                               checkpoint.assignment)});
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  try {
    const RecordReadResult raw = read_records(path, kCheckpointVersion);
    if (raw.records.size() != 1) return std::nullopt;
    PartitionRecord record =
        decode_partition_record(raw.records.front(), {"k", "value"});
    if (record.parts.empty()) return std::nullopt;
    const int k = static_cast<int>(record.integer("k", 1, INT_MAX));
    record.check_parts(k);
    return Checkpoint{k, record.real("value"), std::move(record.parts)};
  } catch (const Error&) {
    // Bad magic, foreign version, damage or a part id outside [0, k):
    // start cold.
    return std::nullopt;
  }
}

}  // namespace ffp::persist
