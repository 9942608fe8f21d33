#include "persist/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace ffp::persist {

namespace {

// Record encodings (the record framing handles lengths, so payloads may
// contain anything, newlines included):
//   "S <id>\n<payload>"   "T <id> <state>"
// plus "R <id>", the started record older builds wrote, which replay skips.
std::string encode_submitted(std::uint64_t job, std::string_view payload) {
  std::string r = "S " + std::to_string(job) + "\n";
  r.append(payload);
  return r;
}

std::string encode_terminal(std::uint64_t job, std::string_view state) {
  std::string r = "T " + std::to_string(job) + " ";
  r.append(state);
  return r;
}

struct Event {
  char kind = 0;  ///< 'S', 'T', or an older build's 'R'
  std::uint64_t job = 0;
  std::string payload;  ///< S: resubmit spec; T: state name
};

std::optional<Event> decode(const std::string& record) {
  if (record.size() < 3 || record[1] != ' ') return std::nullopt;
  const char kind = record[0];
  if (kind != 'S' && kind != 'T' && kind != 'R') return std::nullopt;
  // The id ends at S's newline, at T's space, or at the end of the record.
  std::size_t id_end = kind == 'S'   ? record.find('\n', 2)
                       : kind == 'T' ? record.find(' ', 2)
                                     : std::string::npos;
  const bool delimited = id_end != std::string::npos;
  if (!delimited) id_end = record.size();
  const auto id = parse_int(std::string_view(record).substr(2, id_end - 2));
  if (!id.has_value() || *id < 0) return std::nullopt;
  return Event{kind, static_cast<std::uint64_t>(*id),
               delimited ? record.substr(id_end + 1) : std::string()};
}

void fire_crash_point() {
  if (fault::fire(fault::Point::CrashAfterAppend)) {
    // The record IS durable; the process dies before acting on it — the
    // sharpest crash-recovery case. 137 == 128 + SIGKILL, matching what a
    // real kill -9 exit status looks like to the parent.
    ::_exit(137);
  }
}

}  // namespace

Journal::Journal(std::string path) : path_(std::move(path)) {
  JournalReplay rep = replay(path_);
  recovered_ = std::move(rep.unfinished);
  recovered_truncated_ = rep.truncated;
  // Start this process's journal clean: the old records have been turned
  // into the recovered() work list, so keeping them would only make every
  // future replay re-parse dead history.
  write_records_atomic(path_, kJournalVersion, {});
  writer_ = std::make_unique<RecordWriter>(path_, kJournalVersion);
}

void Journal::submitted(std::uint64_t job, std::string_view payload) {
  std::lock_guard lock(mu_);
  writer_->append(encode_submitted(job, payload));
  outstanding_.emplace(job, std::string(payload));
  fire_crash_point();
}

void Journal::terminal(std::uint64_t job, std::string_view state) {
  std::lock_guard lock(mu_);
  writer_->append(encode_terminal(job, state));
  fire_crash_point();
  outstanding_.erase(job);
  if (outstanding_.empty()) compact_locked();
}

void Journal::compact_locked() {
  // Closing before the atomic rewrite matters: write_records_atomic
  // replaces the inode, and the stale fd would otherwise keep appending
  // to the unlinked old file.
  writer_.reset();
  std::vector<std::string> live;
  live.reserve(outstanding_.size());
  std::vector<std::uint64_t> ids;
  ids.reserve(outstanding_.size());
  for (const auto& [id, payload] : outstanding_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    live.push_back(encode_submitted(id, outstanding_.at(id)));
  }
  write_records_atomic(path_, kJournalVersion, live);
  writer_ = std::make_unique<RecordWriter>(path_, kJournalVersion);
  ++compactions_;
}

std::int64_t Journal::compactions() const {
  std::lock_guard lock(mu_);
  return compactions_;
}

std::size_t Journal::outstanding() const {
  std::lock_guard lock(mu_);
  return outstanding_.size();
}

JournalReplay Journal::replay(const std::string& path) {
  JournalReplay out;
  const RecordReadResult raw = read_records(path, kJournalVersion);
  out.truncated = raw.truncated;
  std::unordered_set<std::uint64_t> live;  // submitted, not yet terminal
  std::vector<std::pair<std::uint64_t, std::string>> submitted_order;
  for (const std::string& record : raw.records) {
    auto ev = decode(record);
    if (!ev.has_value()) {
      // A frame that passed CRC but doesn't parse is a writer bug, not
      // crash damage — but recovery must still limp past it.
      out.truncated = true;
    } else if (ev->kind == 'S') {
      if (live.insert(ev->job).second) {
        submitted_order.emplace_back(ev->job, std::move(ev->payload));
      }
    } else if (ev->kind == 'T') {
      live.erase(ev->job);  // duplicates and unknown ids are no-ops
    }
  }
  for (const auto& [id, payload] : submitted_order) {
    if (live.find(id) != live.end()) out.unfinished.push_back(payload);
  }
  return out;
}

}  // namespace ffp::persist
