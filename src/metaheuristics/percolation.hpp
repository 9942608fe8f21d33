// Percolation partitioning (§4.4): k colored liquids start from k seed
// vertices and drip through the graph; vertex v joins the color with the
// strongest bond, where
//
//   bond(v, Pi) = Σ_{e on the path from c_i to v} w(e) / 2^d,
//
// d being the number of vertices between e and c_i (edges decay
// geometrically with depth). Bonds over all colors are relaxed to a fixed
// point (the paper: "all bonds are recomputed at each step … the algorithm
// stops when no vertex moves to another partition").
//
// Used three ways, exactly as the paper does: standalone (Table 1 row),
// as the initializer for simulated annealing and ant colony, and as the
// fission cutter inside fusion-fission.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace ffp {

struct PercolationOptions {
  int max_rounds = 64;       ///< bond relaxation rounds (converges much sooner)
  std::uint64_t seed = 31;   ///< seed-vertex selection
};

/// Spread k seed vertices far apart (greedy farthest-point by BFS hops).
std::vector<VertexId> spread_seeds(const Graph& g, int k, Rng& rng);

/// Percolate from explicit seeds; returns the assignment (seed i -> part i).
/// Vertices unreachable from every seed join the nearest part by round-robin.
std::vector<int> percolate(const Graph& g, std::span<const VertexId> seeds,
                           const PercolationOptions& options = {});

/// Standalone percolation partition into k parts.
Partition percolation_partition(const Graph& g, int k,
                                const PercolationOptions& options = {});

/// Cuts the subgraph induced by `vertices` in two by percolation from a
/// far-apart seed pair; returns 0/1 labels aligned with `vertices`.
/// Disconnected subsets are split by components (balanced by weight).
std::vector<int> percolation_bisect(const Graph& g,
                                    std::span<const VertexId> vertices,
                                    Rng& rng);

/// Allocation-free variant for hot loops: labels land in `side` (resized to
/// vertices.size()). The fusion-fission fission path calls this once per
/// split with a reused buffer.
///
/// Reentrant worker entry point: all scratch is thread_local, the graph is
/// only read, and the result depends solely on (g, vertices, rng state) —
/// so concurrent portfolio restarts may bisect atoms of the same graph,
/// each with its own Rng, and produce the same labels they would have
/// produced serially. When the parent graph's edge weights are uniform
/// the local CSR skips materializing its weight lane entirely (the kernels
/// substitute the constant), which cuts the per-bisect memory traffic
/// roughly in half on dense-neighborhood families.
void percolation_bisect_into(const Graph& g,
                             std::span<const VertexId> vertices, Rng& rng,
                             std::vector<int>& side);

}  // namespace ffp
