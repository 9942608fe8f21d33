// Combine/mutate operators for the evolutionary portfolio.
//
// Crossover follows the memetic-multilevel recipe: the OVERLAY of two
// parent partitions — vertices agree on a block iff they share a part in
// BOTH parents and are connected — is a common refinement of both. Fed to
// fusion-fission as a warm start, every overlay block is one starting
// atom, so the offspring search begins from structure both parents agree
// on and fuses its way back down to k. The never-worsen-the-better-parent
// contract does NOT come from the overlay (it has more than k blocks); it
// comes from the incumbent channel (RunHooks::incumbent): the better
// parent seeds best-at-k directly, so the offspring result is
// min(search result, better parent) by construction.
//
// Mutation is a plain FF burst: warm-start from one elite (temperature
// restarts at tmax — a reheat) under the normal step budget; the FF
// warm-start contract already guarantees the result never reports worse
// than the elite it started from.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ffp::evolve {

/// The connected-overlay assignment of two parents: vertices u, v share a
/// block iff a[u]==a[v], b[u]==b[v], and they are connected inside that
/// agreement region. Block ids are compacted in discovery (vertex-id)
/// order, so the result is deterministic. Isolated vertices become their
/// own blocks. Throws when either assignment does not cover the graph.
std::vector<int> overlay_assignment(const Graph& g, std::span<const int> a,
                                    std::span<const int> b);

}  // namespace ffp::evolve
