#include "persist/checkpoint.hpp"

#include <cstdio>

#include "persist/atomic_file.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp::persist {

std::string keyed_record_path(const std::string& dir, std::string_view stem,
                              std::uint64_t graph_digest,
                              const std::string& key) {
  std::uint64_t h = fnv1a(key, kFnvBasis);
  char digest_bytes[8];
  for (int i = 0; i < 8; ++i) {
    digest_bytes[i] = static_cast<char>((graph_digest >> (8 * i)) & 0xff);
  }
  h = fnv1a(std::string_view(digest_bytes, 8), h);
  char name[32];
  std::snprintf(name, sizeof(name), "-%016llx.rec",
                static_cast<unsigned long long>(h));
  return dir + "/" + std::string(stem) + name;
}

std::string checkpoint_path(const std::string& dir,
                            std::uint64_t graph_digest,
                            const std::string& solve_key) {
  return keyed_record_path(dir, "ck", graph_digest, solve_key);
}

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::string body;
  body.reserve(32 + checkpoint.assignment.size() * 4);
  char head[64];
  std::snprintf(head, sizeof(head), "k %d\nvalue %.17g\n", checkpoint.k,
                checkpoint.value);
  body += head;
  for (const int part : checkpoint.assignment) {
    body += std::to_string(part);
    body += '\n';
  }
  write_records_atomic(path, kCheckpointVersion, {body});
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  RecordReadResult raw;
  try {
    raw = read_records(path, kCheckpointVersion);
  } catch (const Error&) {
    return std::nullopt;  // bad magic / foreign version: start cold
  }
  if (raw.records.size() != 1) return std::nullopt;
  const std::string& body = raw.records.front();

  Checkpoint ck;
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::optional<std::string_view> {
    if (pos >= body.size()) return std::nullopt;
    const std::size_t nl = body.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? body.size() : nl;
    std::string_view line(body.data() + pos, end - pos);
    pos = end + 1;
    return line;
  };

  const auto k_line = next_line();
  if (!k_line.has_value() || !starts_with(*k_line, "k ")) return std::nullopt;
  const auto k = parse_int(k_line->substr(2));
  if (!k.has_value() || *k < 1) return std::nullopt;
  ck.k = static_cast<int>(*k);

  const auto v_line = next_line();
  if (!v_line.has_value() || !starts_with(*v_line, "value ")) {
    return std::nullopt;
  }
  const auto value = parse_double(v_line->substr(6));
  if (!value.has_value()) return std::nullopt;
  ck.value = *value;

  while (const auto line = next_line()) {
    if (line->empty()) continue;
    const auto part = parse_int(*line);
    if (!part.has_value() || *part < 0) return std::nullopt;
    ck.assignment.push_back(static_cast<int>(*part));
  }
  if (ck.assignment.empty()) return std::nullopt;
  return ck;
}

}  // namespace ffp::persist
