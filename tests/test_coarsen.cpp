#include "multilevel/coarsen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "api/problem.hpp"
#include "graph/generators.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp {
namespace {

TEST(Coarsen, ContractTotalVertexWeightConserved) {
  const auto g = with_random_weights(make_grid2d(6, 6), 1.0, 3.0, 3);
  Rng rng(4);
  const auto match = heavy_edge_matching(g, rng);
  const auto level = contract_matching(g, match);
  EXPECT_NEAR(level.coarse.total_vertex_weight(), g.total_vertex_weight(),
              1e-9);
}

TEST(Coarsen, ContractEdgeWeightConservedModuloInternal) {
  // Total edge weight = coarse edge weight + weight of contracted edges.
  const auto g = with_random_weights(make_torus(5, 5), 1.0, 2.0, 5);
  Rng rng(6);
  const auto match = heavy_edge_matching(g, rng);
  double contracted = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId m = match[static_cast<std::size_t>(v)];
    if (m > v) contracted += g.edge_weight(v, m);
  }
  const auto level = contract_matching(g, match);
  EXPECT_NEAR(level.coarse.total_edge_weight() + contracted,
              g.total_edge_weight(), 1e-9);
}

TEST(Coarsen, MapCoversAllCoarseVertices) {
  const auto g = make_grid2d(7, 5);
  Rng rng(7);
  const auto level = contract_matching(g, heavy_edge_matching(g, rng));
  std::vector<int> hits(static_cast<std::size_t>(level.coarse.num_vertices()), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId c = level.fine_to_coarse[static_cast<std::size_t>(v)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, level.coarse.num_vertices());
    ++hits[static_cast<std::size_t>(c)];
  }
  for (int h : hits) {
    EXPECT_GE(h, 1);
    EXPECT_LE(h, 2);  // matchings merge at most pairs
  }
}

TEST(Coarsen, RejectsAsymmetricMatching) {
  const auto g = make_path(4);
  const std::vector<VertexId> bad = {1, 0, 3, 2};
  EXPECT_NO_THROW(contract_matching(g, bad));
  const std::vector<VertexId> asym = {1, 2, 0, 3};
  EXPECT_THROW(contract_matching(g, asym), Error);
}

TEST(Coarsen, ChainShrinksToThreshold) {
  const auto g = make_grid2d(16, 16);
  CoarsenOptions opt;
  opt.min_vertices = 30;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  EXPECT_LE(chain.back().coarse.num_vertices(), 60);  // ~half per level
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i].coarse.num_vertices(),
              chain[i - 1].coarse.num_vertices());
  }
}

TEST(Coarsen, ChainEmptyForSmallGraph) {
  const auto g = make_path(10);
  CoarsenOptions opt;
  opt.min_vertices = 64;
  EXPECT_TRUE(coarsen_chain(g, opt).empty());
}

TEST(Coarsen, StallsGracefullyOnStar) {
  // A star can only contract one edge per level; the min_shrink guard must
  // terminate the chain rather than looping.
  const auto g = make_star(40);
  CoarsenOptions opt;
  opt.min_vertices = 4;
  const auto chain = coarsen_chain(g, opt);
  EXPECT_LT(chain.size(), 40u);
}

TEST(Coarsen, ProlongRoundTripsConstants) {
  const auto g = make_grid2d(10, 10);
  CoarsenOptions opt;
  opt.min_vertices = 12;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  const std::vector<double> coarse_vals(
      static_cast<std::size_t>(chain.back().coarse.num_vertices()), 3.25);
  const auto fine = prolong_to_finest(chain, chain.size(), coarse_vals);
  ASSERT_EQ(fine.size(), static_cast<std::size_t>(g.num_vertices()));
  for (double v : fine) EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(Coarsen, ProlongMapsDistinctValues) {
  const auto g = make_path(8);
  const std::vector<VertexId> match = {1, 0, 3, 2, 5, 4, 7, 6};
  const auto level = contract_matching(g, match);
  ASSERT_EQ(level.coarse.num_vertices(), 4);
  std::vector<CoarseLevel> chain;
  chain.push_back(level);
  const std::vector<double> vals = {10, 20, 30, 40};
  const auto fine = prolong_to_finest(chain, 1, vals);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(
        fine[static_cast<std::size_t>(v)],
        vals[static_cast<std::size_t>(
            level.fine_to_coarse[static_cast<std::size_t>(v)])]);
  }
}

TEST(Coarsen, DeterministicForSeed) {
  const auto g = make_grid2d(12, 12);
  CoarsenOptions opt;
  opt.seed = 42;
  const auto a = coarsen_chain(g, opt);
  const auto b = coarsen_chain(g, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].coarse.num_vertices(), b[i].coarse.num_vertices());
    EXPECT_EQ(a[i].fine_to_coarse, b[i].fine_to_coarse);
  }
}


// ---------------------------------------------------------- golden bytes ----
// Every level of coarsen_chain, pinned: the coarse graph's api::graph_digest
// (weights hashed by bit pattern) and an FNV of its fine→coarse map. A
// coarse edge weight is a floating-point sum, and floating-point addition is
// not associative, so these pin the order in which contraction adds the
// fine edges that fold into one coarse edge, not only which edges fold.

std::uint64_t map_digest(const std::vector<VertexId>& map) {
  std::uint64_t h = kFnvBasisShort;
  for (const VertexId c : map) {
    h = fnv1a_word(static_cast<std::uint64_t>(c), h);
  }
  return h;
}

/// The most fine edges of `fine` that any one coarse edge of `level` sums.
int max_fold(const Graph& fine, const CoarseLevel& level) {
  std::map<std::pair<VertexId, VertexId>, int> terms;
  int most = 0;
  for (VertexId v = 0; v < fine.num_vertices(); ++v) {
    const VertexId cv = level.fine_to_coarse[static_cast<std::size_t>(v)];
    for (const VertexId u : fine.neighbors(v)) {
      const VertexId cu = level.fine_to_coarse[static_cast<std::size_t>(u)];
      if (u < v || cu == cv) continue;
      most = std::max(most, ++terms[{std::min(cv, cu), std::max(cv, cu)}]);
    }
  }
  return most;
}

std::string hex_list(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t v : values) {
    out += format("0x%016llxull, ", static_cast<unsigned long long>(v));
  }
  return out;
}

struct ChainPin {
  const char* name;
  Graph graph;
  bool weighted;
  std::vector<std::uint64_t> levels;  ///< per level: graph digest, map digest
};

TEST(Coarsen, ChainBytesArePinned) {
  const std::vector<ChainPin> pins = {
      {"grid64",
       make_grid2d(64, 64),
       false,
       {
        0xdc0992c90b005234ull, 0xe551f3875bb195b8ull,
        0xa5cffd766d6d0d85ull, 0x98f7ced34909b06eull,
        0xe6d65e5c30547b47ull, 0xd1a0b78945d75ddbull,
        0xae4b1c954e125472ull, 0x4561a40874d5e83full,
        0x1cbcd61d9c5c0946ull, 0x028afd39d79afe96ull,
        0x745147379567914aull, 0x0b82b4d33cde3d57ull,
        0x869151deef8a6464ull, 0xe2ee1ff473486669ull,
       }},
      {"geometric_w",
       with_random_weights(make_random_geometric(4096, 0.054, 3), 1.0, 10.0, 3),
       true,
       {
        0x61c57952fd3eccf7ull, 0x64d0a9538e428e0dull,
        0x0c5f11e29f3c1d65ull, 0x147f1b64a3c7b3eaull,
        0x1affc259222f45feull, 0x54b1fa870f8cb8a3ull,
        0x8943984dccaf4180ull, 0xc14f1212434396a6ull,
        0xea2728dc475913d1ull, 0x7f640424241845c1ull,
        0x2d901eeb303b1505ull, 0x0dabee7ff4fd8351ull,
        0xec4daf49340900aaull, 0xcfac0360f8b43a08ull,
       }},
      {"powerlaw_w",
       with_random_weights(make_power_law(4096, 6.0, 2.5, 5), 0.5, 4.0, 5),
       true,
       {
        0x146b272ae6710759ull, 0x10a67451c5929665ull,
        0xf5e8ed31c3ab6f7dull, 0x7ad0cc9e84809cb2ull,
        0xf2749ca9f9d16749ull, 0x2219ebc83976d642ull,
        0xefbba637f555e3aeull, 0xb39c2220ef1278c3ull,
        0x10b19eef11846626ull, 0x566e3aeb3f911d41ull,
        0x10679b34d3eee21dull, 0x25d1c6298ae5393cull,
        0x7a19585e74bd644cull, 0x2c68593c8e754d7dull,
        0x0cbe31bea2fcb584ull, 0x39cb757a4c24ac0cull,
        0x51ad761c1b2421c3ull, 0x6774c19c39a0efc4ull,
        0x80b1a4a2c609ea71ull, 0x5e971e30d8fd5b6eull,
        0xea406c8245d93b5cull, 0x48b4615e7c4a1774ull,
        0x7bdb7471e9ef3c10ull, 0x8daa5a6e7d76fb9bull,
        0x6c9240082056d23aull, 0xac4c7630cf532eaaull,
        0xedbdad685aafae51ull, 0xdc4f16e5012178caull,
       }},
  };
  for (const auto& pin : pins) {
    CoarsenOptions opt;
    opt.seed = 11;
    const auto chain = coarsen_chain(pin.graph, opt);
    std::vector<std::uint64_t> got;
    int fold = 0;
    const Graph* fine = &pin.graph;
    for (const auto& level : chain) {
      got.push_back(api::graph_digest(level.coarse));
      got.push_back(map_digest(level.fine_to_coarse));
      fold = std::max(fold, max_fold(*fine, level));
      fine = &level.coarse;
    }
    EXPECT_EQ(got, pin.levels) << pin.name << ": " << hex_list(got);
    // The order-sensitive case: some coarse edge sums three or more terms.
    if (pin.weighted) {
      EXPECT_GE(fold, 3) << pin.name;
    }
  }
}

}  // namespace
}  // namespace ffp
