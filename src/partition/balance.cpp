#include "partition/balance.hpp"

#include <algorithm>
#include <limits>

#include "partition/objective_terms.hpp"

namespace ffp {

void force_k_nonempty(Partition& p, int k) {
  FFP_CHECK(k >= 1 && k <= p.num_parts(), "k exceeds available part slots");
  FFP_CHECK(k <= p.graph().num_vertices(), "k exceeds vertex count");
  while (p.num_nonempty_parts() < k) {
    int empty_slot = -1;
    for (int q = 0; q < p.num_parts(); ++q) {
      if (p.part_size(q) == 0) {
        empty_slot = q;
        break;
      }
    }
    int largest = -1;
    for (int q : p.nonempty_parts()) {
      if (largest == -1 || p.part_size(q) > p.part_size(largest)) largest = q;
    }
    FFP_CHECK(empty_slot != -1 && largest != -1 && p.part_size(largest) >= 2,
              "cannot reach k non-empty parts");
    const auto members = p.members(largest);
    std::vector<VertexId> to_move(members.begin(),
                                  members.begin() + members.size() / 2);
    for (VertexId v : to_move) p.move(v, empty_slot);
  }
}

double imbalance(const Partition& p) {
  return imbalance(p, p.num_nonempty_parts());
}

double imbalance(const Partition& p, int k) {
  FFP_CHECK(k >= 1, "imbalance needs k >= 1");
  const double avg = p.graph().total_vertex_weight() / k;
  if (avg <= 0.0) return 1.0;
  double max_w = 0.0;
  for (int q : p.nonempty_parts()) {
    max_w = std::max(max_w, p.part_vertex_weight(q));
  }
  return max_w / avg;
}

void rebalance(Partition& p, int k, double max_imbalance, Rng& rng) {
  FFP_CHECK(max_imbalance >= 1.0, "max_imbalance must be >= 1.0");
  const double avg = p.graph().total_vertex_weight() / k;
  const double cap = avg * max_imbalance;
  PartMarkScratch adjacent;

  // Bounded number of repair rounds; each round fixes the heaviest part.
  const int max_rounds = 4 * p.graph().num_vertices();
  for (int round = 0; round < max_rounds; ++round) {
    int heavy = -1;
    double heavy_w = cap;
    for (int q : p.nonempty_parts()) {
      if (p.part_vertex_weight(q) > heavy_w) {
        heavy_w = p.part_vertex_weight(q);
        heavy = q;
      }
    }
    if (heavy == -1) return;  // everything under the cap

    // Best (vertex, target) pair: least cut damage, target must stay under
    // the cap after receiving the vertex. Prefer lighter targets on ties.
    VertexId best_v = -1;
    int best_t = -1;
    double best_delta = std::numeric_limits<double>::infinity();
    const auto members = p.members(heavy);
    // Scan in a random rotation so repeated calls don't always pick the same
    // vertex on equal deltas.
    const std::size_t offset =
        members.empty() ? 0 : rng.below(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const VertexId v = members[(i + offset) % members.size()];
      const double vw = p.graph().vertex_weight(v);
      // One scan prices every adjacent target's Cut delta.
      const Weight own = p.neighbor_parts(v, adjacent);
      for (int t : adjacent.marked()) {
        if (p.part_vertex_weight(t) + vw > cap) continue;
        const double delta = detail::move_delta_from_profile(
            p, ObjectiveKind::Cut, v, t, own, adjacent.weight(t));
        if (delta < best_delta) {
          best_delta = delta;
          best_v = v;
          best_t = t;
        }
      }
    }
    if (best_v == -1) {
      // No adjacent part can take anything: fall back to the globally
      // lightest part (may be disconnected from v; still fixes balance).
      int light = -1;
      double light_w = std::numeric_limits<double>::infinity();
      for (int q : p.nonempty_parts()) {
        if (q != heavy && p.part_vertex_weight(q) < light_w) {
          light_w = p.part_vertex_weight(q);
          light = q;
        }
      }
      if (light == -1 || members.empty()) return;
      best_v = members[rng.below(members.size())];
      best_t = light;
    }
    p.move(best_v, best_t);
  }
}

}  // namespace ffp
