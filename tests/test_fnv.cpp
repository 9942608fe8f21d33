// util/fnv.hpp and the four names and keys built on it. Each caller's
// offset basis is baked into state that outlives a process — durable cache
// file names, checkpoint and population file names, the graph digest in
// every cache and archive key, and the shard a graph_file submit routes
// to — so these values are pinned: a change here orphans files on disk
// or moves keys and routes.
#include "util/fnv.hpp"

#include <gtest/gtest.h>

#include <string>

#include "api/api.hpp"
#include "graph/generators.hpp"
#include "persist/atomic_file.hpp"
#include "persist/checkpoint.hpp"
#include "shard/router.hpp"

namespace ffp {
namespace {

TEST(Fnv, StandardVectors) {
  EXPECT_EQ(fnv1a("", kFnvBasis), kFnvBasis);
  EXPECT_EQ(fnv1a("a", kFnvBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", kFnvBasis), 0x85944171f73967e8ull);
  // A word is its eight bytes, least significant first.
  EXPECT_EQ(fnv1a_word(0x0807060504030201ull, kFnvBasisShort),
            fnv1a(std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8),
                  kFnvBasisShort));
}

TEST(Fnv, GraphDigestIsPinned) {
  EXPECT_EQ(api::graph_digest(make_grid2d(6, 6)), 0x0226c93bb0e70553ull);
  EXPECT_EQ(api::graph_digest(with_random_weights(make_grid2d(5, 7), 1, 9, 3)),
            0xa860de303cc1b463ull);
}

TEST(Fnv, RecordFileNamesArePinned) {
  EXPECT_EQ(persist::checkpoint_path("d", 0x0123456789abcdefull,
                                     "fusion_fission|k=4"),
            "d/ck-d918298f1e1eafed.rec");
  EXPECT_EQ(persist::keyed_record_path("d", "pop", 0x0123456789abcdefull,
                                       "k=4|mcut"),
            "d/pop-32a8056768e7cd60.rec");
}

TEST(Fnv, GraphFileRouteIsPinned) {
  Request request;
  request.graph_file = "/data/mesh.graph";
  EXPECT_EQ(shard::route_digest(request), 0xd7f199c61c3b1712ull);
}

TEST(Fnv, DurableCacheEntryNameIsPinned) {
  const std::string dir = ::testing::TempDir() + "/fnv_cache_name";
  for (const std::string& name : persist::list_dir(dir + "/cache")) {
    persist::remove_file(dir + "/cache/" + name);
  }
  persist::remove_file(dir + "/journal.rec");
  {
    api::EngineOptions options;
    options.state_dir = dir;
    api::Engine engine(options);
    api::SolveSpec spec;
    spec.k = 2;
    spec.steps = 300;
    spec.seed = 1;
    engine.solve(api::Problem::generated("grid2d:6,6"), spec);
  }
  const auto names = persist::list_dir(dir + "/cache");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "e-48dd37222e1d3d13.rec");
}

}  // namespace
}  // namespace ffp
