// persist/journal: WAL record lifecycle, tolerant replay over CRC-damaged
// tails, duplicate-terminal tolerance, older journals' started records,
// unknown-version loudness, and compaction — including under concurrent
// appenders.
#include "persist/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "persist/atomic_file.hpp"
#include "util/check.hpp"

namespace ffp {
namespace {

std::string tmp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  persist::remove_file(path);
  return path;
}

TEST(Journal, LifecycleAndAutoCompaction) {
  const std::string path = tmp_journal("jr_lifecycle.rec");
  persist::Journal journal(path);
  EXPECT_TRUE(journal.recovered().empty());
  EXPECT_EQ(journal.outstanding(), 0u);

  journal.submitted(1, "graph=gen:path:8\nk=2\n");
  journal.submitted(2, "graph=gen:path:9\nk=3\n");
  EXPECT_EQ(journal.outstanding(), 2u);
  journal.terminal(1, "done");
  EXPECT_EQ(journal.outstanding(), 1u);
  EXPECT_EQ(journal.compactions(), 0);  // job 2 still live
  journal.terminal(2, "failed");
  EXPECT_EQ(journal.outstanding(), 0u);
  // All entries terminal -> the file compacted to an empty header.
  EXPECT_EQ(journal.compactions(), 1);
  const auto read = persist::read_records(path, persist::kJournalVersion);
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.truncated);
}

TEST(Journal, ReplaySeparatesFinishedFromUnfinished) {
  const std::string path = tmp_journal("jr_replay.rec");
  {
    persist::Journal journal(path);
    journal.submitted(1, "payload-one");
    journal.submitted(2, "payload-two");
    journal.submitted(3, "payload-three");
    journal.terminal(2, "done");
    // Crash here: 1 and 3 are owed, 2 finished.
  }
  const auto replay = persist::Journal::replay(path);
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.unfinished.size(), 2u);
  EXPECT_EQ(replay.unfinished[0], "payload-one");  // submission order
  EXPECT_EQ(replay.unfinished[1], "payload-three");

  // A new journal over the same file recovers the same list, then owns a
  // freshly compacted file containing only ITS jobs.
  persist::Journal next(path);
  ASSERT_EQ(next.recovered().size(), 2u);
  EXPECT_EQ(next.recovered()[0], "payload-one");
  EXPECT_FALSE(next.recovered_truncated());
  EXPECT_EQ(next.outstanding(), 0u);
  persist::Journal after(path);  // compaction made the hand-off clean
  EXPECT_TRUE(after.recovered().empty());
}

TEST(Journal, OlderJournalsWithStartedRecordsReplayTheSame) {
  // Older builds also appended "R <id>" when a job started running. Their
  // journals must recover the same work list, and the started records are
  // not damage.
  const std::string path = tmp_journal("jr_started_records.rec");
  {
    persist::RecordWriter writer(path, persist::kJournalVersion);
    writer.append("S 1\npayload-one");
    writer.append("S 2\npayload-two");
    writer.append("S 3\npayload-three");
    writer.append("R 1");
    writer.append("R 2");
    writer.append("T 2 done");
    writer.append("R 3");
  }
  const auto replay = persist::Journal::replay(path);
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.unfinished.size(), 2u);
  EXPECT_EQ(replay.unfinished[0], "payload-one");
  EXPECT_EQ(replay.unfinished[1], "payload-three");

  persist::Journal journal(path);
  EXPECT_FALSE(journal.recovered_truncated());
  EXPECT_EQ(journal.recovered(), replay.unfinished);
}

TEST(Journal, WritesOnlySubmittedAndTerminalRecords) {
  const std::string path = tmp_journal("jr_two_records.rec");
  persist::Journal journal(path);
  journal.submitted(7, "p7");
  journal.submitted(8, "p8");
  journal.terminal(7, "done");
  const auto read = persist::read_records(path, persist::kJournalVersion);
  EXPECT_FALSE(read.truncated);
  EXPECT_EQ(read.records, (std::vector<std::string>{"S 7\np7", "S 8\np8",
                                                    "T 7 done"}));
}

TEST(Journal, CrcCorruptTailKeepsPriorRecords) {
  const std::string path = tmp_journal("jr_corrupt_tail.rec");
  {
    persist::Journal journal(path);
    journal.submitted(1, "survives");
    journal.submitted(2, "this submitted record gets torn");
  }
  std::string bytes = persist::read_file(path).value();
  persist::atomic_write_file(path, bytes.substr(0, bytes.size() - 5));
  const auto replay = persist::Journal::replay(path);
  EXPECT_TRUE(replay.truncated);
  ASSERT_EQ(replay.unfinished.size(), 1u);
  EXPECT_EQ(replay.unfinished[0], "survives");

  persist::Journal journal(path);
  EXPECT_TRUE(journal.recovered_truncated());
  ASSERT_EQ(journal.recovered().size(), 1u);
}

TEST(Journal, DuplicateAndUnknownTerminalsAreHarmless) {
  const std::string path = tmp_journal("jr_dup_terminal.rec");
  persist::Journal journal(path);
  journal.submitted(1, "p1");
  journal.terminal(1, "done");
  journal.terminal(1, "done");   // duplicate
  journal.terminal(42, "done");  // never submitted
  EXPECT_EQ(journal.outstanding(), 0u);
  const auto replay = persist::Journal::replay(path);
  EXPECT_TRUE(replay.unfinished.empty());
  EXPECT_FALSE(replay.truncated);
}

TEST(Journal, DuplicateSubmittedRecordsDedup) {
  // A compaction rewrite followed by a crash can leave a submitted record
  // that replays again alongside a duplicate appended later; the replay
  // must not produce the job twice.
  const std::string path = tmp_journal("jr_dup_submit.rec");
  {
    persist::RecordWriter writer(path, persist::kJournalVersion);
    writer.append("S 5\nsame-payload");
    writer.append("S 5\nsame-payload");
  }
  const auto replay = persist::Journal::replay(path);
  ASSERT_EQ(replay.unfinished.size(), 1u);
  EXPECT_EQ(replay.unfinished[0], "same-payload");
}

TEST(Journal, UnknownVersionHeaderRejected) {
  const std::string path = tmp_journal("jr_bad_version.rec");
  { persist::RecordWriter writer(path, persist::kJournalVersion + 98); }
  EXPECT_THROW(persist::Journal::replay(path), Error);
  EXPECT_THROW(persist::Journal journal(path), Error);

  persist::atomic_write_file(path, "not a journal");
  EXPECT_THROW(persist::Journal journal(path), Error);
}

TEST(Journal, UnparsableRecordFlagsTruncation) {
  const std::string path = tmp_journal("jr_unparsable.rec");
  {
    persist::RecordWriter writer(path, persist::kJournalVersion);
    writer.append("S 1\ngood");
    writer.append("Z total nonsense");  // valid frame, invalid encoding
    writer.append("S 2\nalso good");
  }
  const auto replay = persist::Journal::replay(path);
  EXPECT_TRUE(replay.truncated);  // surfaced so the operator can see it
  ASSERT_EQ(replay.unfinished.size(), 2u);  // ...but parsing continued
}

TEST(Journal, CompactionUnderConcurrentAppends) {
  const std::string path = tmp_journal("jr_concurrent.rec");
  persist::Journal journal(path);
  // 8 threads × 25 jobs, each submit/terminal — every terminal that
  // empties the outstanding set compacts the file while siblings append.
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 25;
  std::atomic<std::uint64_t> next_id{1};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const std::uint64_t id = next_id.fetch_add(1);
        journal.submitted(id, "job-" + std::to_string(id));
        journal.terminal(id, "done");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(journal.outstanding(), 0u);
  EXPECT_GE(journal.compactions(), 1);
  // The survivor is a clean, fully-parsable journal with nothing owed.
  const auto replay = persist::Journal::replay(path);
  EXPECT_FALSE(replay.truncated);
  EXPECT_TRUE(replay.unfinished.empty());
}

}  // namespace
}  // namespace ffp
