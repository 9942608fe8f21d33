#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"

namespace ffp {
namespace {

TEST(ChacoIo, ReadsUnweightedGraph) {
  // Triangle in Chaco format (1-based neighbor lists).
  std::istringstream in("3 3\n2 3\n1 3\n1 2\n");
  const auto g = read_chaco(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(ChacoIo, ReadsEdgeWeights) {
  std::istringstream in("2 1 1\n2 7.5\n1 7.5\n");
  const auto g = read_chaco(in);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 7.5);
}

TEST(ChacoIo, ReadsVertexWeights) {
  std::istringstream in("2 1 10\n3 2\n4 1\n");
  const auto g = read_chaco(in);
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 4.0);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(ChacoIo, ReadsBothWeights) {
  std::istringstream in("2 1 11\n5 2 2.5\n6 1 2.5\n");
  const auto g = read_chaco(in);
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 5.0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 6.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.5);
}

TEST(ChacoIo, SkipsComments) {
  std::istringstream in("% header comment\n3 2\n# another\n2\n1 3\n2\n");
  const auto g = read_chaco(in);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(ChacoIo, IsolatedVertexLine) {
  std::istringstream in("3 1\n2\n1\n\n");
  const auto g = read_chaco(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(ChacoIo, ErrorOnMissingHeader) {
  std::istringstream in("");
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorOnBadNeighborId) {
  std::istringstream in("2 1\n3\n1\n");  // id 3 out of range
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorOnSelfLoop) {
  std::istringstream in("2 1\n1\n2\n");
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorOnEdgeCountMismatch) {
  std::istringstream in("3 5\n2\n1\n\n");
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorOnTruncatedFile) {
  std::istringstream in("3 2\n2\n");
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorMessagesCarryLineNumbers) {
  std::istringstream in("2 1\nbogus\n1\n");
  try {
    read_chaco(in);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// ---- hardening against untrusted input (the ffp_serve attack surface) ----

TEST(ChacoIo, ErrorOnVertexCountBeyondVertexIdRange) {
  // 2^33 vertices: used to truncate silently through the VertexId cast.
  std::istringstream in("8589934592 1\n2\n1\n");
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, ErrorOnDeclaredEdgeCountBeyondLimit) {
  std::istringstream in("3 9000000000000000000\n2\n1\n\n");
  // A huge declared m must fail cleanly (count mismatch at worst), not
  // pre-allocate by the header.
  EXPECT_THROW(read_chaco(in), Error);
}

TEST(ChacoIo, IoLimitsCapVerticesAndEdges) {
  IoLimits limits;
  limits.max_vertices = 4;
  std::istringstream big_n("5 0\n\n\n\n\n\n");
  EXPECT_THROW(read_chaco(big_n, limits), Error);

  limits = {};
  limits.max_edges = 1;
  std::istringstream big_m("3 2\n2 3\n1 3\n1 2\n");
  EXPECT_THROW(read_chaco(big_m, limits), Error);

  // Within the caps everything still parses.
  limits.max_vertices = 3;
  limits.max_edges = 3;
  std::istringstream ok("3 3\n2 3\n1 3\n1 2\n");
  EXPECT_EQ(read_chaco(ok, limits).num_edges(), 3);
}

TEST(ChacoIo, ErrorOnDuplicateNeighborEntry) {
  std::istringstream in("3 3\n2 2 3\n1 3\n1 2\n");
  try {
    read_chaco(in);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate edge"), std::string::npos);
  }
}

TEST(ChacoIo, ErrorOnNonFiniteWeights) {
  // from_chars happily parses "nan" and "inf"; the reader must not.
  std::istringstream nan_ew("2 1 1\n2 nan\n1 nan\n");
  EXPECT_THROW(read_chaco(nan_ew), Error);
  std::istringstream inf_vw("2 1 10\ninf 2\n4 1\n");
  EXPECT_THROW(read_chaco(inf_vw), Error);
}

TEST(ChacoIo, ErrorOnBogusFmtField) {
  std::istringstream in("2 1 2\n2\n1\n");  // fmt digit not in {0, 1}
  EXPECT_THROW(read_chaco(in), Error);
  std::istringstream neg("2 1 -1\n2\n1\n");
  EXPECT_THROW(read_chaco(neg), Error);
}

TEST(ChacoIo, SelfLoopErrorNamesTheVertex) {
  std::istringstream in("2 1\n1\n2\n");
  try {
    read_chaco(in);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("self loop on vertex 1"),
              std::string::npos);
  }
}

TEST(ChacoIo, RoundTripUnweighted) {
  const auto g = make_grid2d(4, 5);
  std::ostringstream out;
  write_chaco(g, out);
  std::istringstream in(out.str());
  const auto g2 = read_chaco(in);
  EXPECT_EQ(g2.num_vertices(), g.num_vertices());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g2.degree(v), g.degree(v));
  }
}

TEST(ChacoIo, RoundTripWeighted) {
  const auto g = with_random_weights(make_torus(4, 4), 1.0, 9.0, 5);
  std::ostringstream out;
  write_chaco(g, out);
  std::istringstream in(out.str());
  const auto g2 = read_chaco(in);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_NEAR(g2.edge_weight(v, u), g.edge_weight(v, u), 1e-9);
    }
  }
}

TEST(PartitionIo, RoundTrip) {
  const std::vector<int> parts = {0, 2, 1, 1, 0};
  std::ostringstream out;
  write_partition(parts, out);
  std::istringstream in(out.str());
  EXPECT_EQ(read_partition(in), parts);
}

TEST(PartitionIo, ErrorOnNegative) {
  std::istringstream in("0\n-1\n");
  EXPECT_THROW(read_partition(in), Error);
}

TEST(FileIo, MissingFileThrows) {
  // A user-named file: the message names it and the reason, with no check
  // expression or source location.
  try {
    (void)read_chaco_file("/nonexistent/path.graph");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent/path.graph"), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("FFP_CHECK"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ffp
