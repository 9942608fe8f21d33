// Write-ahead job journal: the crash-recovery spine of `ffp_serve
// --state-dir`.
//
// Every journaled job leaves two records over its life, each fsync'd
// before the action it describes becomes visible:
//
//   S <id>\n<payload>   submitted — payload is everything needed to
//                       resubmit the job (api::Engine builds and parses
//                       it; the journal treats it as opaque bytes)
//   T <id> <state>      terminal (done/failed/cancelled/...)
//
// Journals written by older builds also hold `R <id>` (started) records;
// replay reads past them, since whether a job had started never changed
// what recovery resubmits.
//
// Replay after a crash is tolerant by construction: records ride the
// persist::atomic_file CRC framing, so a tail torn by kill -9 mid-append
// drops at most the record being written, and a submitted record with no
// terminal record marks a job the dead process still owed an answer —
// the resubmission work list.
//
// The journal compacts itself: whenever a terminal record leaves zero
// outstanding jobs, the file is atomically rewritten to just a header, so
// steady-state disk cost is bounded by the live job set, not server
// uptime. Construction replays + compacts, so a process only ever appends
// to a file describing its own jobs.
//
// Thread-safe; every append is durable (fsync) before returning. The
// crash_after_append fault point fires right AFTER an append becomes
// durable — _exit(137) at the worst possible moment is exactly the drill
// tests/test_recovery.cpp runs.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "persist/atomic_file.hpp"

namespace ffp::persist {

inline constexpr std::uint32_t kJournalVersion = 1;

struct JournalReplay {
  bool truncated = false;
  /// Submitted payloads with no terminal record, in submission order.
  std::vector<std::string> unfinished;
};

class Journal {
 public:
  /// Opens (creating) the journal at `path`. Any existing records are
  /// replayed first — tolerantly, see replay() — and the unfinished work
  /// list is kept for recovered(); the file is then compacted to a fresh
  /// header. Throws on a wrong-magic / unknown-version file: that is a
  /// format error, not a crash artifact.
  explicit Journal(std::string path);

  /// The previous process's unfinished submitted payloads (resubmission
  /// work list). Stable after construction.
  const std::vector<std::string>& recovered() const { return recovered_; }
  bool recovered_truncated() const { return recovered_truncated_; }

  void submitted(std::uint64_t job, std::string_view payload);
  /// Appends the terminal record; when it leaves no outstanding job the
  /// file is compacted to an empty header. Duplicate terminals (replay
  /// races, defensive callers) are appended but otherwise harmless.
  void terminal(std::uint64_t job, std::string_view state);

  std::int64_t compactions() const;
  std::size_t outstanding() const;

  /// Tolerant read of a journal file: a torn tail sets `truncated` and
  /// drops only the damaged frames; duplicate terminal records and
  /// records for unknown jobs are ignored. Missing file -> empty replay.
  /// Wrong magic / unknown version -> throws ffp::Error.
  static JournalReplay replay(const std::string& path);

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::unique_ptr<RecordWriter> writer_;
  /// Journaled jobs without a terminal record yet, payload kept so
  /// compaction can rewrite their submitted records.
  std::unordered_map<std::uint64_t, std::string> outstanding_;
  std::vector<std::string> recovered_;
  bool recovered_truncated_ = false;
  std::int64_t compactions_ = 0;

  void compact_locked();
};

}  // namespace ffp::persist
