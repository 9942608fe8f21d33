// Crash-only file primitives — the ONE path every durable write in the
// repo goes through (journal, checkpoints, persisted cache entries,
// partition files, bench JSON).
//
// Two layers:
//
//   * atomic_write_file(): write to a same-directory temp file, fsync the
//     file, rename() over the target, fsync the directory. A reader (or a
//     process restarted after kill -9) sees either the old contents or the
//     new contents in full — never a torn mix. The torn_checkpoint fault
//     point (FFP_FAULT) bypasses this dance and short-writes straight to
//     the final path, simulating the legacy non-atomic write the record
//     framing below must reject.
//
//   * Framed record files: an 8-byte magic + little-endian u32 version
//     header, then [u32 length][u32 crc32][payload] records. Appends go
//     through RecordWriter (write + fsync per record — write-ahead-log
//     discipline); reads go through read_records(), which stops cleanly at
//     the first torn/corrupt frame (`truncated` flag) instead of throwing:
//     a tail ripped by a crash mid-append loses at most the record being
//     written. A wrong magic or an unknown version DOES throw — that is a
//     format error, not a crash artifact, and must fail loudly.
//
// All paths are plain byte strings; directories are created with
// ensure_dir(). Errors (ENOSPC, EACCES, ...) throw ffp::Error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ffp::persist {

/// CRC-32 (IEEE 802.3, reflected) of `data`. crc32("123456789") ==
/// 0xCBF43926.
std::uint32_t crc32(std::string_view data);

/// mkdir -p: creates `path` and any missing parents. No-op when it
/// already exists as a directory.
void ensure_dir(const std::string& path);

bool file_exists(const std::string& path);

/// Whole-file read; std::nullopt when the file does not exist. Other I/O
/// errors throw.
std::optional<std::string> read_file(const std::string& path);

/// Best-effort unlink (missing file is fine).
void remove_file(const std::string& path);

/// Regular-file names in `path`, sorted; empty when the directory is
/// missing.
std::vector<std::string> list_dir(const std::string& path);

/// Durable atomic replace of `path` with `contents` (temp + fsync +
/// rename + directory fsync).
void atomic_write_file(const std::string& path, std::string_view contents);

struct RecordReadResult {
  std::vector<std::string> records;
  /// True when the file ended inside a frame or a frame failed its CRC:
  /// everything before the damage is in `records`, the rest is dropped.
  bool truncated = false;
};

/// Append-side of a framed record file. Opens (creating) `path`, writes
/// the header if the file is empty, and validates magic + version if not.
class RecordWriter {
 public:
  RecordWriter(const std::string& path, std::uint32_t version);
  ~RecordWriter();
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Frames, writes and fsyncs one record; durable on return.
  void append(std::string_view payload);

 private:
  std::string path_;
  int fd_ = -1;
};

/// Tolerant read of a framed record file. Missing file -> empty result.
/// Wrong magic or version != expected_version -> throws ffp::Error.
RecordReadResult read_records(const std::string& path,
                              std::uint32_t expected_version);

/// Atomically replaces `path` with a fresh header + the given records —
/// the compaction primitive (and the writer for single-record files like
/// checkpoints).
void write_records_atomic(const std::string& path, std::uint32_t version,
                          const std::vector<std::string>& records);

}  // namespace ffp::persist
