// persist/atomic_file + persist/checkpoint: the crash-only primitives
// every durable write rides on. CRC known-answer, atomic replace, framed
// record round-trips, torn-tail tolerance, format-error loudness, the
// torn_checkpoint fault drill, checkpoint save/load under damage, the one
// partition record body (its bytes pinned for checkpoints, cache entries
// and populations), and seeded mutation of every record body and of the
// journal.
#include "persist/atomic_file.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "evolve/elite_archive.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ffp {
namespace {

struct FaultGuard {
  ~FaultGuard() { fault::configure(""); }
};

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AtomicFile, Crc32KnownAnswer) {
  // The IEEE 802.3 check value every CRC-32 implementation must match.
  EXPECT_EQ(persist::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::crc32(""), 0u);
  EXPECT_NE(persist::crc32("a"), persist::crc32("b"));
}

TEST(AtomicFile, AtomicWriteReplacesWholeFile) {
  const std::string path = tmp_path("atomic_replace.txt");
  persist::atomic_write_file(path, "first contents\n");
  EXPECT_EQ(persist::read_file(path).value(), "first contents\n");
  persist::atomic_write_file(path, "x");
  EXPECT_EQ(persist::read_file(path).value(), "x");
  persist::remove_file(path);
  EXPECT_FALSE(persist::read_file(path).has_value());
}

TEST(AtomicFile, EnsureDirAndListDir) {
  const std::string dir = tmp_path("persist_dir/a/b");
  persist::ensure_dir(dir);
  persist::ensure_dir(dir);  // idempotent
  persist::atomic_write_file(dir + "/zz.txt", "z");
  persist::atomic_write_file(dir + "/aa.txt", "a");
  const auto names = persist::list_dir(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aa.txt");  // sorted
  EXPECT_EQ(names[1], "zz.txt");
  EXPECT_TRUE(persist::list_dir(dir + "/missing").empty());
}

TEST(AtomicFile, RecordRoundTrip) {
  const std::string path = tmp_path("records_roundtrip.rec");
  persist::remove_file(path);
  {
    persist::RecordWriter writer(path, 7);
    writer.append("alpha");
    writer.append("");  // empty payloads are legal records
    writer.append(std::string(10000, 'x'));
  }
  // Re-open appends, never rewrites.
  {
    persist::RecordWriter writer(path, 7);
    writer.append("beta");
  }
  const auto read = persist::read_records(path, 7);
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.records.size(), 4u);
  EXPECT_EQ(read.records[0], "alpha");
  EXPECT_EQ(read.records[1], "");
  EXPECT_EQ(read.records[2], std::string(10000, 'x'));
  EXPECT_EQ(read.records[3], "beta");
}

TEST(AtomicFile, MissingFileReadsEmpty) {
  const auto read = persist::read_records(tmp_path("never_written.rec"), 1);
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.truncated);
}

TEST(AtomicFile, TornTailDropsOnlyTheDamage) {
  const std::string path = tmp_path("torn_tail.rec");
  persist::remove_file(path);
  {
    persist::RecordWriter writer(path, 1);
    writer.append("keep me");
    writer.append("tear me");
  }
  // Simulate kill -9 mid-append: chop bytes off the end of the file.
  std::string bytes = persist::read_file(path).value();
  persist::atomic_write_file(path, bytes.substr(0, bytes.size() - 3));
  const auto read = persist::read_records(path, 1);
  EXPECT_TRUE(read.truncated);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0], "keep me");
  // A writer re-opening the damaged file appends after what it can trust.
  // (The journal compacts first, so this path only matters for tools.)
}

TEST(AtomicFile, CorruptCrcDropsTheRecord) {
  const std::string path = tmp_path("bad_crc.rec");
  persist::remove_file(path);
  {
    persist::RecordWriter writer(path, 1);
    writer.append("good");
    writer.append("flip a payload bit");
  }
  std::string bytes = persist::read_file(path).value();
  bytes.back() ^= 0x40;  // corrupt the LAST record's payload
  persist::atomic_write_file(path, bytes);
  const auto read = persist::read_records(path, 1);
  EXPECT_TRUE(read.truncated);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0], "good");
}

TEST(AtomicFile, WrongMagicAndVersionFailLoudly) {
  const std::string path = tmp_path("wrong_header.rec");
  // Not a crash artifact — a format error: reading must throw, not
  // silently treat the file as empty.
  persist::atomic_write_file(path, "this is not a record file at all....");
  EXPECT_THROW(persist::read_records(path, 1), Error);
  EXPECT_THROW(persist::RecordWriter(path, 1), Error);

  persist::remove_file(path);
  { persist::RecordWriter writer(path, 2); }
  EXPECT_THROW(persist::read_records(path, 1), Error);  // version mismatch
  EXPECT_THROW(persist::RecordWriter(path, 99), Error);
}

TEST(AtomicFile, WriteRecordsAtomicCompacts) {
  const std::string path = tmp_path("compacted.rec");
  persist::write_records_atomic(path, 3, {"one", "two"});
  auto read = persist::read_records(path, 3);
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.records.size(), 2u);
  persist::write_records_atomic(path, 3, {});
  read = persist::read_records(path, 3);
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.truncated);
}

TEST(AtomicFile, TornCheckpointFaultProducesRejectedFile) {
  FaultGuard guard;
  const std::string path = tmp_path("torn_fault.rec");
  persist::write_records_atomic(path, 1, {"the good version"});
  // The fault point bypasses the atomic dance and short-writes half the
  // bytes straight to the final path — the legacy non-atomic failure
  // mode. The framing must refuse to surface a record from the wreck.
  fault::configure("torn_checkpoint=1;max_fires=1");
  persist::write_records_atomic(path, 1,
                                {"a replacement that never fully lands"});
  const auto read = persist::read_records(path, 1);
  EXPECT_TRUE(read.truncated);
  EXPECT_TRUE(read.records.empty());
}

TEST(Checkpoint, RoundTripExactly) {
  const std::string path = tmp_path("ckpt_roundtrip.rec");
  persist::Checkpoint ck;
  ck.k = 4;
  ck.value = 0.1 + 0.2;  // a value that needs %.17g to round-trip
  ck.assignment = {0, 1, 2, 3, 0, 1, 2, 3};
  persist::save_checkpoint(path, ck);
  const auto loaded = persist::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->k, 4);
  EXPECT_EQ(loaded->value, ck.value);  // bit-exact
  EXPECT_EQ(loaded->assignment, ck.assignment);
}

TEST(Checkpoint, DamageReadsAsNoCheckpoint) {
  const std::string path = tmp_path("ckpt_damage.rec");
  EXPECT_FALSE(persist::load_checkpoint(path).has_value());  // missing

  persist::Checkpoint ck;
  ck.k = 2;
  ck.value = 1.0;
  ck.assignment = {0, 1};
  persist::save_checkpoint(path, ck);
  std::string bytes = persist::read_file(path).value();
  persist::atomic_write_file(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(persist::load_checkpoint(path).has_value());  // torn

  persist::atomic_write_file(path, "garbage");
  EXPECT_FALSE(persist::load_checkpoint(path).has_value());  // wrong magic

  persist::write_records_atomic(path, persist::kCheckpointVersion,
                                {"k 2\nvalue nonsense\n0\n1\n"});
  EXPECT_FALSE(persist::load_checkpoint(path).has_value());  // unparsable
}

TEST(Checkpoint, TornCheckpointFaultLoadsAsCold) {
  FaultGuard guard;
  const std::string path = tmp_path("ckpt_torn_fault.rec");
  persist::remove_file(path);
  fault::configure("torn_checkpoint=1;max_fires=1");
  persist::Checkpoint ck;
  ck.k = 2;
  ck.value = 3.5;
  ck.assignment = {0, 0, 1, 1};
  persist::save_checkpoint(path, ck);  // short-writes via the fault
  EXPECT_FALSE(persist::load_checkpoint(path).has_value());
  // Next save (fault budget spent) repairs the file completely.
  persist::save_checkpoint(path, ck);
  ASSERT_TRUE(persist::load_checkpoint(path).has_value());
}

TEST(Checkpoint, OutOfRangeNumbersReadAsNoCheckpoint) {
  // A narrowing cast would read part 2^32 as part 0 and k = 2^32 + 2 as
  // k = 2: out-of-range numbers must read as no checkpoint instead.
  const std::string path = tmp_path("ckpt_out_of_range.rec");
  for (const char* body : {"k 2\nvalue 1\n0\n4294967296\n",
                           "k 4294967298\nvalue 1\n0\n1\n",
                           "k 2\nvalue 1\n0\n-1\n", "k 0\nvalue 1\n0\n"}) {
    persist::write_records_atomic(path, persist::kCheckpointVersion, {body});
    EXPECT_FALSE(persist::load_checkpoint(path).has_value()) << body;
  }
}

TEST(Checkpoint, PathIsDeterministicAndKeyed) {
  const std::string a = persist::checkpoint_path("d", 1, "spec-a");
  EXPECT_EQ(a, persist::checkpoint_path("d", 1, "spec-a"));
  EXPECT_NE(a, persist::checkpoint_path("d", 2, "spec-a"));
  EXPECT_NE(a, persist::checkpoint_path("d", 1, "spec-b"));
  EXPECT_EQ(a.rfind("d/", 0), 0u);
}

// ------------------------------------------------- the record body ----

TEST(PartitionRecord, RoundTripsFieldsAndParts) {
  const std::vector<int> parts = {0, 2, 1, 2147483647};
  const std::string body = encode_partition_record(
      {{"name", "a value with spaces"},
       {"count", "-7"},
       {"value", real_text(0.1 + 0.2)},
       {"digest", "00000000deadbeef"}},
      parts);
  const PartitionRecord r = decode_partition_record(
      body, {"name", "count", "value", "digest"});
  EXPECT_EQ(r.text("name"), "a value with spaces");
  EXPECT_EQ(r.integer("count", -10, 10), -7);
  EXPECT_EQ(r.real("value"), 0.1 + 0.2);  // bit-exact
  EXPECT_EQ(r.hex("digest"), 0xdeadbeefull);
  EXPECT_EQ(r.parts, parts);

  const PartitionRecord head = decode_partition_record(
      encode_partition_record({{"k", "2"}}), {"k"});
  EXPECT_TRUE(head.parts.empty());
}

TEST(PartitionRecord, HeaderLinesAreReadByNameInOrder) {
  const std::string body = "k 2\nvalue 1.5\n0\n1\n";
  EXPECT_NO_THROW(decode_partition_record(body, {"k", "value"}));
  EXPECT_THROW(decode_partition_record(body, {"value", "k"}), Error);
  EXPECT_THROW(decode_partition_record(body, {"k", "seconds"}), Error);
  EXPECT_THROW(decode_partition_record(body, {"kk"}), Error);
  EXPECT_THROW(decode_partition_record("", {"k"}), Error);
  EXPECT_THROW(decode_partition_record("k", {"k"}), Error);
  // A record whose header runs out before the names do.
  EXPECT_THROW(decode_partition_record("k 2\n", {"k", "value"}), Error);
  // Fewer names than header lines: the rest is not a partition body.
  EXPECT_THROW(decode_partition_record(body, {"k"}), Error);
}

TEST(PartitionRecord, BadPartIdsAndFieldsThrowErrors) {
  for (const char* tail : {"-1\n", "2147483648\n", "1x\n", "0.5\n"}) {
    EXPECT_THROW(decode_partition_record(std::string("k 1\n") + tail, {"k"}),
                 Error)
        << tail;
  }
  const PartitionRecord r = decode_partition_record(
      "a 5\nb x\nc 12g\nd \n", {"a", "b", "c", "d"});
  EXPECT_THROW(r.integer("a", 6, 9), Error);
  EXPECT_THROW(r.integer("b", 0, 9), Error);
  EXPECT_THROW(r.real("b"), Error);
  EXPECT_THROW(r.hex("c"), Error);
  EXPECT_THROW(r.hex("d"), Error);
  EXPECT_EQ(r.text("d"), "");
  EXPECT_THROW(r.text("e"), Error);
}

// The record bytes on disk, fixed for every build that reads them: a
// checkpoint, cache entry or population written today must load in the
// next version and the last one.

TEST(RecordBytes, CheckpointIsPinned) {
  const std::string path = tmp_path("golden_checkpoint.rec");
  persist::save_checkpoint(path, persist::Checkpoint{3, 0.1, {0, 1, 2}});
  const auto read = persist::read_records(path, persist::kCheckpointVersion);
  EXPECT_EQ(read.records, std::vector<std::string>{
                              "k 3\nvalue 0.10000000000000001\n0\n1\n2\n"});
}

TEST(RecordBytes, PopulationIsPinned) {
  const std::string dir = tmp_path("golden_population");
  for (const std::string& name : persist::list_dir(dir)) {
    persist::remove_file(dir + "/" + name);
  }
  {
    evolve::EliteArchive archive(evolve::ArchiveOptions{8, dir});
    archive.admit(evolve::PopulationKey{0x0123456789abcdefull, 2,
                                        ObjectiveKind::Cut},
                  std::vector<int>{0, 1, 1, 0}, 0.1 + 0.2);
  }
  const auto names = persist::list_dir(dir);
  ASSERT_EQ(names, std::vector<std::string>{"pop-529dfb84a8b3499d.rec"});
  const auto read = persist::read_records(dir + "/" + names[0], 1);
  EXPECT_EQ(read.records,
            (std::vector<std::string>{
                "digest 0123456789abcdef\nk 2\nobjective cut\n",
                "value 0.30000000000000004\nstamp 1\n0\n1\n1\n0\n"}));
}

TEST(RecordBytes, CacheEntryIsPinned) {
  const std::string dir = tmp_path("golden_cache_entry");
  for (const std::string& name : persist::list_dir(dir + "/cache")) {
    persist::remove_file(dir + "/cache/" + name);
  }
  persist::remove_file(dir + "/journal.rec");
  {
    api::EngineOptions options;
    options.state_dir = dir;
    api::Engine engine(options);
    api::SolveSpec spec;
    spec.method = "linear";
    spec.k = 2;
    spec.steps = 10;
    spec.seed = 1;
    engine.solve(api::Problem::from_any("grid2d:4,1"), spec);
  }
  const auto names = persist::list_dir(dir + "/cache");
  ASSERT_EQ(names, std::vector<std::string>{"e-31c9f3cd988f318a.rec"});
  const auto read = persist::read_records(dir + "/cache/" + names[0], 1);
  ASSERT_EQ(read.records.size(), 1u);
  // `seconds` is the solve's wall clock: its value differs between any two
  // runs, so only its line is checked for shape.
  const std::string& body = read.records[0];
  const std::size_t at = body.find("seconds ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t nl = body.find('\n', at);
  ASSERT_NE(nl, std::string::npos);
  EXPECT_EQ(body.substr(0, at),
            "key gdd136b1d6de2a346|linear|k=2|obj=Mcut|seed=1|steps=10|"
            "restarts=1\ngraph grid2d:4,1\nvalue 1\n");
  EXPECT_TRUE(parse_double(body.substr(at + 8, nl - at - 8)).has_value());
  EXPECT_EQ(body.substr(nl + 1), "0\n0\n1\n1\n");
}

// ---------------------------------------------- part ids bounded by k ----
//
// A CRC-valid record whose part id is 5000000 for a 4-vertex graph: bounded
// only by INT_MAX, it would size a 5000001-part Partition. Each owner checks
// the ids against its own k and applies its damage policy.

void clear_dir(const std::string& dir) {
  for (const std::string& name : persist::list_dir(dir)) {
    persist::remove_file(dir + "/" + name);
  }
}

TEST(PartIdBound, CheckpointReadsAsNone) {
  const std::string path = tmp_path("part_id_checkpoint.rec");
  const auto write = [&](int last) {
    persist::write_records_atomic(
        path, persist::kCheckpointVersion,
        {encode_partition_record({{"k", "2"}, {"value", "1"}},
                                 {{0, 0, 1, last}})});
  };
  write(1);
  ASSERT_TRUE(persist::load_checkpoint(path).has_value());
  for (const int last : {2, 5000000}) {
    write(last);
    EXPECT_FALSE(persist::load_checkpoint(path).has_value()) << last;
  }
}

TEST(PartIdBound, PopulationFileIsDeleted) {
  const std::string dir = tmp_path("part_id_population");
  clear_dir(dir);
  persist::ensure_dir(dir);
  const std::string path =
      persist::keyed_record_path(dir, "pop", 0x0123456789abcdefull, "k=2");
  const auto write = [&](int last) {
    persist::write_records_atomic(
        path, 1,
        {encode_partition_record({{"digest", "0123456789abcdef"},
                                  {"k", "2"},
                                  {"objective", "cut"}}),
         encode_partition_record({{"value", "1"}, {"stamp", "1"}},
                                 {{0, 0, 1, last}})});
  };
  write(1);
  {
    evolve::EliteArchive archive(evolve::ArchiveOptions{8, dir});
    ASSERT_EQ(archive.counters().populations, 1);
  }
  write(5000000);
  {
    evolve::EliteArchive archive(evolve::ArchiveOptions{8, dir});
    EXPECT_EQ(archive.counters().populations, 0);
  }
  EXPECT_FALSE(persist::file_exists(path));
}

TEST(PartIdBound, CacheEntryIsDeleted) {
  const std::string dir = tmp_path("part_id_cache_entry");
  clear_dir(dir + "/cache");
  persist::remove_file(dir + "/journal.rec");
  persist::ensure_dir(dir + "/cache");
  // The key and name RecordBytes.CacheEntryIsPinned pins for grid2d:4,1.
  const std::string path = dir + "/cache/e-31c9f3cd988f318a.rec";
  const auto write = [&](int last) {
    persist::write_records_atomic(
        path, 1,
        {encode_partition_record(
            {{"key",
              "gdd136b1d6de2a346|linear|k=2|obj=Mcut|seed=1|steps=10|"
              "restarts=1"},
             {"graph", "grid2d:4,1"},
             {"value", "1"},
             {"seconds", "0"}},
            {{0, 0, 1, last}})});
  };
  api::EngineOptions options;
  options.state_dir = dir;
  write(1);
  {
    api::Engine engine(options);
    ASSERT_EQ(engine.cache_counters().entries, 1);
  }
  write(5000000);
  {
    api::Engine engine(options);
    EXPECT_EQ(engine.cache_counters().entries, 0);
  }
  EXPECT_FALSE(persist::file_exists(path));
}

// ------------------------------------------------- seeded mutation ----
//
// Every record body and the journal, mutated by byte flips, truncation,
// splicing and oversized numbers, then written through
// write_records_atomic so the CRC holds and the decoder sees the damage.
// Each decode must end and either succeed or throw ffp::Error; the owners'
// loaders must not throw at all.

std::vector<std::string> mutants(const std::vector<std::string>& seeds,
                                 std::uint64_t seed, int count) {
  static const std::vector<std::string> kNumbers = {
      "99999999999999999999999", "2147483648", "-2147483649",
      "9223372036854775808",     "-1",         "1e99999",
      "nan",                     "-inf",       "0x10",
      "",                        " 7",         "18446744073709551616"};
  Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string m = seeds[rng.below(seeds.size())];
    switch (rng.below(4)) {
      case 0:  // byte flips
        for (std::uint64_t f = 1 + rng.below(4); f > 0 && !m.empty(); --f) {
          m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
        }
        break;
      case 1:  // truncation
        m.resize(rng.below(m.size() + 1));
        break;
      case 2: {  // splice two seeds
        const std::string& other = seeds[rng.below(seeds.size())];
        m = m.substr(0, rng.below(m.size() + 1)) +
            other.substr(rng.below(other.size() + 1));
        break;
      }
      default: {  // an oversized (or otherwise bad) number for a digit run
        std::vector<std::size_t> digits;
        for (std::size_t c = 0; c < m.size(); ++c) {
          if (std::isdigit(static_cast<unsigned char>(m[c]))) {
            digits.push_back(c);
          }
        }
        const std::string& number = kNumbers[rng.below(kNumbers.size())];
        if (digits.empty()) {
          m += number;
          break;
        }
        std::size_t start = digits[rng.below(digits.size())];
        std::size_t end = start;
        while (start > 0 &&
               std::isdigit(static_cast<unsigned char>(m[start - 1]))) {
          --start;
        }
        while (end < m.size() &&
               std::isdigit(static_cast<unsigned char>(m[end]))) {
          ++end;
        }
        m.replace(start, end - start, number);
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Runs `decode`; a throw of anything but ffp::Error fails the test.
void decodes_or_throws_error(const std::string& mutant,
                             const std::function<void()>& decode) {
  try {
    decode();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << e.what() << " on mutant '" << mutant << "'";
  } catch (...) {
    ADD_FAILURE() << "threw a non-exception on mutant '" << mutant << "'";
  }
}

constexpr int kMutants = 300;

TEST(RecordMutation, CheckpointsLoadOrReadAsNone) {
  const std::string path = tmp_path("mutant_checkpoint.rec");
  const std::vector<std::string> seeds = {
      encode_partition_record(
          {{"k", "3"}, {"value", real_text(0.1)}}, {{0, 1, 2, 2, 1}}),
      encode_partition_record(
          {{"k", "64"}, {"value", real_text(1e-300)}},
          {{63, 0, 17, 2147483647}}),
  };
  for (const std::string& m : mutants(seeds, 11, kMutants)) {
    persist::write_records_atomic(path, persist::kCheckpointVersion, {m});
    std::optional<persist::Checkpoint> ck;
    EXPECT_NO_THROW(ck = persist::load_checkpoint(path)) << m;
    if (ck.has_value()) {
      EXPECT_GE(ck->k, 1) << m;
      EXPECT_FALSE(ck->assignment.empty()) << m;
    }
    decodes_or_throws_error(m, [&] {
      const auto r = decode_partition_record(m, {"k", "value"});
      r.integer("k", 1, INT32_MAX);
      r.real("value");
    });
  }
}

TEST(RecordMutation, CacheEntriesDecodeOrThrowError) {
  const std::string path = tmp_path("mutant_cache_entry.rec");
  const std::vector<std::string> seeds = {
      encode_partition_record(
          {{"key", "gdd136b1d6de2a346|linear|k=2|obj=Mcut|seed=1|steps=10"},
           {"graph", "grid2d:4,1"},
           {"value", "1"},
           {"seconds", real_text(8.843e-06)}},
          {{0, 0, 1, 1}}),
      encode_partition_record(
          {{"key", "g0000000000000001|fusion_fission|k=3"},
           {"graph", "/data/a graph.graph"},
           {"value", real_text(0.30000000000000004)},
           {"seconds", "12.5"}},
          {{2, 1, 0, 2, 1, 0}}),
  };
  for (const std::string& m : mutants(seeds, 12, kMutants)) {
    persist::write_records_atomic(path, 1, {m});
    const auto read = persist::read_records(path, 1);
    ASSERT_EQ(read.records.size(), 1u);
    decodes_or_throws_error(m, [&] {
      const auto r = decode_partition_record(
          read.records[0], {"key", "graph", "value", "seconds"});
      r.text("key");
      r.text("graph");
      r.real("value");
      r.real("seconds");
    });
  }
}

TEST(RecordMutation, PopulationsLoadOrAreDeleted) {
  const std::string dir = tmp_path("mutant_population");
  const std::string path =
      persist::keyed_record_path(dir, "pop", 0x0123456789abcdefull, "k=2");
  const std::vector<std::string> seeds = {
      encode_partition_record({{"digest", "0123456789abcdef"},
                                        {"k", "2"},
                                        {"objective", "cut"}}),
      encode_partition_record(
          {{"value", real_text(3.5)}, {"stamp", "1"}},
          {{0, 1, 1, 0}}),
      encode_partition_record(
          {{"value", "4"}, {"stamp", "18446744073709551615"}}, {{1, 0, 0, 1}}),
  };
  Rng pick(13);
  for (const std::string& m : mutants(seeds, 14, kMutants)) {
    for (const std::string& name : persist::list_dir(dir)) {
      persist::remove_file(dir + "/" + name);
    }
    // The mutant takes the place of one record of an intact file.
    std::vector<std::string> records = {seeds[0], seeds[1]};
    records[pick.below(records.size())] = m;
    persist::ensure_dir(dir);
    persist::write_records_atomic(path, 1, records);
    EXPECT_NO_THROW({
      evolve::EliteArchive archive(evolve::ArchiveOptions{8, dir});
      // Loaded, or deleted as damage.
      EXPECT_EQ(archive.counters().populations,
                persist::file_exists(path) ? 1 : 0)
          << m;
    }) << m;
    decodes_or_throws_error(m, [&] {
      const auto head =
          decode_partition_record(m, {"digest", "k", "objective"});
      head.hex("digest");
      head.integer("k", 1, INT32_MAX);
    });
    decodes_or_throws_error(m, [&] {
      const auto elite = decode_partition_record(m, {"value", "stamp"});
      elite.real("value");
      elite.integer("stamp", 0, INT64_MAX);
    });
  }
}

TEST(RecordMutation, JournalsReplayWithoutThrowing) {
  const std::string path = tmp_path("mutant_journal.rec");
  const std::vector<std::string> seeds = {
      "S 1\ngraph=grid2d:4,4\nmethod=fusion_fission\nk=2\nseed=7\n",
      "R 1", "T 1 done", "S 22\ngraph=/data/g.graph\nk=8\n", "T 22 failed",
      "R 22"};
  Rng pick(15);
  for (const std::string& m : mutants(seeds, 16, kMutants)) {
    std::vector<std::string> records = seeds;
    records[pick.below(records.size())] = m;
    persist::write_records_atomic(path, persist::kJournalVersion, records);
    persist::JournalReplay replay;
    EXPECT_NO_THROW(replay = persist::Journal::replay(path)) << m;
    EXPECT_LE(replay.unfinished.size(), records.size()) << m;
  }
}

}  // namespace
}  // namespace ffp
