// Chaos suite: the mixed batch through the event loop under every
// injected fault class (util/fault.hpp), driven by ServiceClient's retry
// loop on real loopback sockets.
//
// The contract being proven: no crash, no deadlock (ctest enforces a hard
// timeout), structured errors only — and, after retries, partitions
// byte-identical to an in-process ServiceSession with no transport,
// because deterministic specs are result-cache keys and a replayed job is
// a lookup. The retry backoff itself is deterministic and bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "serve_support.hpp"
#include "service/client.hpp"
#include "util/fault.hpp"

namespace ffp {
namespace {

using testing::client_options;
using testing::LoopServer;
using testing::mixed_jobs;
using testing::outcomes;
using testing::session_reference;

/// Every test leaves the global injector off, pass or fail.
struct FaultGuard {
  ~FaultGuard() { fault::configure(""); }
};

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 1000;
  policy.seed = 9;
  double cap = policy.base_ms;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double wait = policy.backoff_ms(attempt);
    EXPECT_EQ(wait, policy.backoff_ms(attempt));  // deterministic
    EXPECT_GE(wait, cap / 2);                     // full jitter floor
    EXPECT_LE(wait, cap);                         // cap ceiling
    cap = std::min(cap * 2, policy.max_ms);
  }
  // Different seeds → different jitter.
  RetryPolicy other = policy;
  other.seed = 10;
  EXPECT_NE(policy.backoff_ms(3), other.backoff_ms(3));
}

/// One chaos scenario: the mixed batch under `spec` must fully succeed
/// with the reference outcomes.
void run_chaos(const std::string& spec, bool expect_fires) {
  const auto& reference = session_reference();
  FaultGuard guard;
  LoopServer server;
  fault::configure(spec);
  ServiceClient client(client_options(server.port()));
  const auto chaos = outcomes(client.run(mixed_jobs()));
  if (expect_fires) {
    EXPECT_GT(fault::fires(), 0) << "scenario injected nothing: " << spec;
  }
  fault::configure("");  // quiet before the server drains
  EXPECT_EQ(chaos, reference) << "results diverged under: " << spec;
}

TEST(Chaos, SurvivesConnectionDrops) {
  run_chaos("conn_drop=1;seed=5;max_fires=3", true);
}

TEST(Chaos, SurvivesShortReads) {
  // Probability 1, no budget: EVERY recv is one byte — framing must
  // reassemble lines from maximal fragmentation.
  run_chaos("short_read=1;seed=5", true);
}

TEST(Chaos, SurvivesTornWrites) {
  run_chaos("torn_write=1;seed=5;max_fires=2", true);
}

TEST(Chaos, SurvivesDelayedResponses) {
  run_chaos("delay_response=1;delay_ms=30;seed=5;max_fires=4", true);
}

TEST(Chaos, SurvivesAcceptFailures) {
  run_chaos("accept_fail=1;seed=5;max_fires=2", true);
}

TEST(Chaos, SurvivesMixedFaults) {
  run_chaos("conn_drop=0.3;short_read=0.3;torn_write=0.2;seed=17;max_fires=6",
            false /* probabilistic: may fire zero times */);
}

}  // namespace
}  // namespace ffp
