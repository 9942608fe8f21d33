// Crash recovery, end to end. In-process: persisted results reload across
// an Engine restart, journaled jobs are resubmitted, a clean shutdown
// leaves nothing to recover, warm-start resume is monotone on every
// generator family, and persistence observes without perturbing results.
// Out of process: a real ffp_serve is SIGKILLed mid-batch (and crashed
// deterministically via FFP_FAULT=crash_after_append), restarted on the
// same --state-dir, and must serve the identical bytes a crash-free run
// produces.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ffp/api.hpp"
#include "persist/atomic_file.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "service/client.hpp"
#include "service/json.hpp"

namespace ffp {
namespace {

/// A fresh (emptied) durable-state directory under the test temp root.
std::string state_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  for (const std::string sub : {"cache", "checkpoints", "graphs"}) {
    const std::string subdir = dir + "/" + sub;
    for (const std::string& f : persist::list_dir(subdir)) {
      persist::remove_file(subdir + "/" + f);
    }
  }
  persist::remove_file(dir + "/journal.rec");
  return dir;
}

std::vector<int> assignment_of(const Partition& p) {
  return {p.assignment().begin(), p.assignment().end()};
}

api::SolveSpec small_spec() {
  api::SolveSpec spec;
  spec.method = "fusion_fission";
  spec.k = 3;
  spec.seed = 2006;
  spec.steps = 800;  // deterministic -> journaled, cacheable
  return spec;
}

// ------------------------------------------------------- in-process ----

TEST(Recovery, PersistedResultsSurviveRestart) {
  const std::string dir = state_dir("rec_persisted");
  const api::Problem problem = api::Problem::generated("grid2d:10,10");
  std::vector<int> first;
  double first_value = 0.0;
  {
    api::EngineOptions options;
    options.state_dir = dir;
    api::Engine engine(options);
    EXPECT_EQ(engine.recovered_jobs(), 0u);
    const SolverResult result = engine.solve(problem, small_spec());
    first = assignment_of(result.best);
    first_value = result.best_value;
  }
  // Clean shutdown: every journal entry went terminal, so the journal
  // compacted down to nothing to recover.
  const auto replay = persist::Journal::replay(dir + "/journal.rec");
  EXPECT_TRUE(replay.unfinished.empty());
  EXPECT_FALSE(replay.truncated);

  // A fresh process over the same state dir answers the same spec from
  // the persisted cache: terminal at submit, byte-identical partition.
  api::EngineOptions options;
  options.state_dir = dir;
  api::Engine engine(options);
  EXPECT_EQ(engine.recovered_jobs(), 0u);
  const api::SolveHandle handle =
      engine.submit(api::Problem::generated("grid2d:10,10"), small_spec());
  EXPECT_TRUE(handle.cached());
  const JobStatus status = handle.wait();
  ASSERT_EQ(status.state, JobState::Done);
  ASSERT_NE(status.result, nullptr);
  EXPECT_EQ(assignment_of(status.result->best), first);
  EXPECT_EQ(status.result->best_value, first_value);
}

TEST(Recovery, JournaledJobsAreResubmittedOnRecovery) {
  const std::string dir = state_dir("rec_resubmit");
  // Simulate a crash that left one submitted-but-unfinished job behind:
  // hand-append a journal record in the engine's payload format.
  persist::ensure_dir(dir);
  {
    persist::Journal journal(dir + "/journal.rec");
    journal.submitted(1,
                      "graph=grid2d:8,8\n"
                      "method=fusion_fission\n"
                      "k=3\n"
                      "objective=mcut\n"
                      "seed=11\n"
                      "steps=600\n"
                      "budget_ms=5000\n"
                      "restarts=1\n"
                      "threads=0\n"
                      "priority=0\n"
                      "queue_ttl_ms=0\n"
                      "checkpoint_every_ms=0\n"
                      "warm_start=0\n");
    // Older journals carry the want of the removed intra-run engine; the
    // job still replays, as the serial spec.
    journal.submitted(2,
                      "graph=grid2d:8,8\n"
                      "method=fusion_fission\n"
                      "k=3\n"
                      "objective=mcut\n"
                      "seed=12\n"
                      "steps=600\n"
                      "budget_ms=5000\n"
                      "restarts=1\n"
                      "threads=2\n"
                      "priority=0\n"
                      "queue_ttl_ms=0\n"
                      "checkpoint_every_ms=0\n"
                      "warm_start=0\n");
    // Journal destructor does NOT write a terminal record — exactly the
    // on-disk state a kill -9 between submit and finish leaves.
  }

  api::EngineOptions options;
  options.state_dir = dir;
  api::Engine engine(options);
  EXPECT_EQ(engine.recovered_jobs(), 2u);
  engine.drain();

  // The recovered jobs ran to completion and persisted: the identical
  // direct submissions are now cache hits, not second solves.
  for (const std::uint64_t seed : {11u, 12u}) {
    api::SolveSpec spec;
    spec.method = "fusion_fission";
    spec.k = 3;
    spec.seed = seed;
    spec.steps = 600;
    const api::SolveHandle handle =
        engine.submit(api::Problem::generated("grid2d:8,8"), spec);
    EXPECT_TRUE(handle.cached()) << "seed " << seed;
    EXPECT_EQ(handle.wait().state, JobState::Done);
  }
}

TEST(Recovery, UnparsableJournalPayloadsAreSkippedNotFatal) {
  const std::string dir = state_dir("rec_bad_payload");
  persist::ensure_dir(dir);
  {
    persist::Journal journal(dir + "/journal.rec");
    journal.submitted(1, "this is not a payload");
    journal.submitted(2,
                      "graph=grid2d:6,6\n"
                      "method=fusion_fission\n"
                      "k=2\n"
                      "objective=mcut\n"
                      "seed=5\n"
                      "steps=400\n"
                      "budget_ms=5000\n"
                      "restarts=1\n"
                      "threads=0\n"
                      "priority=0\n"
                      "queue_ttl_ms=0\n"
                      "checkpoint_every_ms=0\n"
                      "warm_start=0\n");
  }
  api::EngineOptions options;
  options.state_dir = dir;
  api::Engine engine(options);
  // The rotten payload is skipped with a note; the good one still runs.
  EXPECT_EQ(engine.recovered_jobs(), 1u);
  engine.drain();
}

TEST(Recovery, WarmStartNeverWorseThanItsCheckpointOnEveryFamily) {
  int family_index = 0;
  for (const std::string family :
       {"grid2d:12,12", "torus:12,12", "geometric:140,0.18,5",
        "powerlaw:140,6,2.5,5"}) {
    const std::string dir =
        state_dir("rec_warm_" + std::to_string(family_index++));
    const api::Problem problem = api::Problem::generated(family);

    api::SolveSpec spec;
    spec.method = "fusion_fission";
    spec.k = 4;
    spec.seed = 2006;
    spec.steps = 1500;
    spec.checkpoint_every_ms = 50;  // the final flush always lands

    double checkpointed = 0.0;
    {
      api::EngineOptions options;
      options.state_dir = dir;
      api::Engine engine(options);
      checkpointed = engine.solve(problem, spec).best_value;
    }

    // The durable checkpoint holds exactly what the run reported.
    const std::string ckpath = persist::checkpoint_path(
        dir + "/checkpoints", problem.digest(),
        spec.checkpoint_key(spec.resolve()));
    const auto ck = persist::load_checkpoint(ckpath);
    ASSERT_TRUE(ck.has_value()) << family;
    EXPECT_EQ(ck->value, checkpointed) << family;

    // Resume IN A FRESH PROCESS from the durable checkpoint. The spec
    // identity (steps included) names the checkpoint, so the resumed run
    // carries the same budget — and must never report anything worse.
    api::SolveSpec resume = spec;
    resume.warm_start = true;
    resume.checkpoint_every_ms = 0;
    api::EngineOptions options;
    options.state_dir = dir;
    api::Engine engine(options);
    const double resumed = engine.solve(problem, resume).best_value;
    EXPECT_LE(resumed, checkpointed) << family;
  }
}

TEST(Recovery, PersistenceObservesWithoutPerturbingResults) {
  const api::Problem problem = api::Problem::generated("torus:10,10");
  std::vector<int> plain;
  {
    api::Engine engine;  // no state dir: the historical in-memory engine
    plain = assignment_of(engine.solve(problem, small_spec()).best);
  }
  api::EngineOptions options;
  options.state_dir = state_dir("rec_bit_identical");
  api::Engine engine(options);
  EXPECT_EQ(assignment_of(engine.solve(problem, small_spec()).best), plain);
}

// --------------------------------------------------- process drills ----

/// One ffp_serve child on an ephemeral port with a durable state dir,
/// stderr piped so the test can read the "listening on" line.
struct ServeProc {
  pid_t pid = -1;
  int port = 0;
  int err_fd = -1;
  std::string banner;  // stderr up to (and including) the listening line

  /// Journaled jobs the server's startup banner says it resubmitted, or
  /// -1 if the banner has no recovery line.
  int recovered() const {
    const std::size_t at = banner.find("recovered ");
    if (at == std::string::npos) return -1;
    return std::atoi(banner.c_str() + at + 10);
  }

  ~ServeProc() {
    if (err_fd >= 0) ::close(err_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void sigkill() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
  }

  /// Waits for exit and returns the exit code (-1 on signal death).
  int wait_exit() {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -2;
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

void spawn_serve(ServeProc& proc, const std::string& dir,
                 const char* fault_spec) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    if (fault_spec != nullptr) {
      ::setenv("FFP_FAULT", fault_spec, 1);
    } else {
      ::unsetenv("FFP_FAULT");
    }
    ::execl("./ffp_serve", "ffp_serve", "--listen", "0", "--runners", "2",
            "--state-dir", dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed: tests must run from the build dir
  }
  ::close(fds[1]);
  proc.pid = pid;
  proc.err_fd = fds[0];
  // Read stderr byte-wise until the listening line announces the port.
  std::string text;
  char c = 0;
  while (text.find("listening on 127.0.0.1:") == std::string::npos ||
         text.find('\n', text.find("listening on")) == std::string::npos) {
    const ssize_t n = ::read(proc.err_fd, &c, 1);
    ASSERT_GT(n, 0) << "ffp_serve died before listening; stderr:\n" << text;
    text.push_back(c);
  }
  const std::size_t colon = text.find("127.0.0.1:");
  proc.port = std::atoi(text.c_str() + colon + 10);
  ASSERT_GT(proc.port, 0) << text;
  proc.banner = std::move(text);
}

/// Six deterministic jobs on an inline 16-ring, distinct seeds — enough
/// work that a SIGKILL a few ms in lands mid-batch.
std::vector<ClientJob> drill_jobs() {
  std::string edges = "[";
  for (int v = 0; v < 16; ++v) {
    if (v > 0) edges += ",";
    edges +=
        "[" + std::to_string(v) + "," + std::to_string((v + 1) % 16) + "]";
  }
  edges += "]";
  std::vector<ClientJob> jobs;
  for (int i = 0; i < 6; ++i) {
    const std::string id = "d" + std::to_string(i);
    jobs.push_back({id, "{\"op\":\"submit\",\"id\":\"" + id +
                            "\",\"graph\":{\"n\":16,\"edges\":" + edges +
                            "},\"k\":4,\"steps\":2000,\"seed\":" +
                            std::to_string(20 + i) + "}"});
  }
  return jobs;
}

ServiceClientOptions drill_client(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 6;
  options.retry.base_ms = 5;
  options.retry.max_ms = 40;
  options.retry.seed = 13;
  options.io_timeout_ms = 20000;
  return options;
}

/// id -> (partition, value); requires every job to have succeeded when
/// `must_succeed` (the post-recovery pass), tolerates failures otherwise
/// (the pass the crash interrupts).
std::map<std::string, std::pair<std::vector<int>, double>> drill_outcomes(
    const std::vector<ClientResult>& results, bool must_succeed) {
  std::map<std::string, std::pair<std::vector<int>, double>> out;
  for (const ClientResult& r : results) {
    if (must_succeed) {
      EXPECT_TRUE(r.ok) << r.id << " failed [" << err_name(r.code)
                        << "]: " << r.error;
    }
    if (!r.ok) continue;
    const JsonValue event = JsonValue::parse(r.result_line);
    std::vector<int> parts;
    for (const auto& p : event.find("partition")->as_array()) {
      parts.push_back(static_cast<int>(p.as_int()));
    }
    out[r.id] = {std::move(parts), event.find("value")->as_number()};
  }
  return out;
}

/// The crash-free reference: one clean ffp_serve run over its own state
/// dir, computed once and shared by both drills.
const std::map<std::string, std::pair<std::vector<int>, double>>&
drill_reference() {
  static const auto reference = [] {
    ServeProc proc;
    spawn_serve(proc, state_dir("drill_reference"), nullptr);
    ServiceClient client(drill_client(proc.port));
    auto out = drill_outcomes(client.run(drill_jobs()), true);
    EXPECT_EQ(out.size(), 6u);
    return out;
  }();
  return reference;
}

TEST(RecoveryDrill, SigkillMidBatchThenRestartServesIdenticalBytes) {
  const auto& reference = drill_reference();
  ASSERT_EQ(reference.size(), 6u);
  const std::string dir = state_dir("drill_sigkill");

  ServeProc first;
  spawn_serve(first, dir, nullptr);
  // Run the batch from a background thread and SIGKILL the server while
  // it is (very likely) mid-batch. However the timing lands, the contract
  // is the same: whatever this pass lost, the restart must make whole.
  std::vector<ClientResult> interrupted;
  std::thread batch([&] {
    ServiceClient client(drill_client(first.port));
    interrupted = client.run(drill_jobs());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  first.sigkill();
  batch.join();
  drill_outcomes(interrupted, false);  // failures expected; just parseable

  // Restart on the same state dir: journal replay resubmits what the
  // crash orphaned, the persisted cache answers what already finished,
  // and the rerun batch is byte-identical to the crash-free run.
  ServeProc second;
  spawn_serve(second, dir, nullptr);
  ServiceClient client(drill_client(second.port));
  const auto recovered = drill_outcomes(client.run(drill_jobs()), true);
  EXPECT_EQ(recovered, reference);
}

TEST(RecoveryDrill, CrashAfterAppendFaultThenRestartServesIdenticalBytes) {
  const auto& reference = drill_reference();
  const std::string dir = state_dir("drill_fault");

  // FFP_FAULT kills the server (exit 137, as kill -9 would) immediately
  // after the FIRST journal append becomes durable — the sharpest window:
  // the job is on disk, nothing has acted on it, no ack ever went out.
  ServeProc first;
  spawn_serve(first, dir, "crash_after_append=1;max_fires=1");
  {
    ServiceClient client(drill_client(first.port));
    client.run(drill_jobs());  // the crash fails these; outcomes irrelevant
  }
  EXPECT_EQ(first.wait_exit(), 137);

  // The durable append left real recovery work behind.
  const auto replay = persist::Journal::replay(dir + "/journal.rec");
  EXPECT_GE(replay.unfinished.size(), 1u);

  ServeProc second;
  spawn_serve(second, dir, nullptr);
  // The restart must actually REPLAY (parse the real journal payload and
  // resubmit), not merely limp past it and lean on the client's retry —
  // that distinction is exactly what the banner count pins down.
  EXPECT_GE(second.recovered(), 1) << second.banner;
  ServiceClient client(drill_client(second.port));
  const auto recovered = drill_outcomes(client.run(drill_jobs()), true);
  EXPECT_EQ(recovered, reference);
}

}  // namespace
}  // namespace ffp
