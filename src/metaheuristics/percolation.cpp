#include "metaheuristics/percolation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "graph/connectivity.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// Multi-source Dijkstra with flow-aware edge lengths 1/(1+w): heavy flows
/// make regions "close", so farthest-point seeding puts more seeds where
/// traffic is dense — which is what balances the liquids' catchment areas.
std::vector<double> flow_distances(const Graph& g,
                                   std::span<const VertexId> sources) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (VertexId s : sources) {
    dist[static_cast<std::size_t>(s)] = 0.0;
    pq.push({0.0, s});
  }
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double nd = d + 1.0 / (1.0 + ws[i]);
      if (nd < dist[static_cast<std::size_t>(nbrs[i])]) {
        dist[static_cast<std::size_t>(nbrs[i])] = nd;
        pq.push({nd, nbrs[i]});
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<VertexId> spread_seeds(const Graph& g, int k, Rng& rng) {
  const VertexId n = g.num_vertices();
  FFP_CHECK(k >= 1 && k <= n, "seed count out of range");
  std::vector<VertexId> seeds;
  seeds.reserve(static_cast<std::size_t>(k));
  seeds.push_back(static_cast<VertexId>(rng.below(static_cast<std::uint64_t>(n))));

  // Greedy farthest point in flow distance; unreachable vertices (infinite
  // distance) are the farthest of all.
  for (int i = 1; i < k; ++i) {
    const auto dist = flow_distances(g, seeds);
    VertexId best = -1;
    double best_d = -1.0;
    for (VertexId v = 0; v < n; ++v) {
      if (std::find(seeds.begin(), seeds.end(), v) != seeds.end()) continue;
      const double d = dist[static_cast<std::size_t>(v)];
      if (d > best_d) {
        best_d = d;
        best = v;
      }
    }
    FFP_CHECK(best != -1, "not enough distinct vertices for seeds");
    seeds.push_back(best);
  }
  return seeds;
}

std::vector<int> percolate(const Graph& g, std::span<const VertexId> seeds,
                           const PercolationOptions& options) {
  const VertexId n = g.num_vertices();
  const int k = static_cast<int>(seeds.size());
  FFP_CHECK(k >= 1, "need at least one seed");

  // Phase 1 — synchronized dripping: all liquids advance one hop per round
  // ("the liquid starts on a place, and then drips gradually"). A liquid
  // only flows through territory it owns; a vertex reached by several
  // liquids in the same round goes to the strongest bond, where the bond
  // accumulates w(e)/2^d along the claiming path (§4.4's formula).
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  std::vector<double> bond(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int32_t> depth(static_cast<std::size_t>(n), -1);

  std::vector<VertexId> frontier;
  for (int c = 0; c < k; ++c) {
    const VertexId s = seeds[static_cast<std::size_t>(c)];
    FFP_CHECK(s >= 0 && s < n, "seed out of range");
    FFP_CHECK(owner[static_cast<std::size_t>(s)] == -1, "duplicate seed");
    owner[static_cast<std::size_t>(s)] = c;
    bond[static_cast<std::size_t>(s)] = 0.0;  // path sum starts empty
    depth[static_cast<std::size_t>(s)] = 0;
    frontier.push_back(s);
  }

  std::vector<double> cand_bond(static_cast<std::size_t>(n), -1.0);
  std::vector<int> cand_owner(static_cast<std::size_t>(n), -1);
  std::vector<VertexId> touched;
  while (!frontier.empty()) {
    touched.clear();
    for (VertexId u : frontier) {
      const auto su = static_cast<std::size_t>(u);
      const double decay = std::ldexp(1.0, -std::min(depth[su], 50));
      const auto nbrs = g.neighbors(u);
      const auto ws = g.neighbor_weights(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto sv = static_cast<std::size_t>(nbrs[i]);
        if (owner[sv] != -1) continue;  // already claimed
        const double b = bond[su] + ws[i] * decay;
        if (b > cand_bond[sv]) {
          if (cand_bond[sv] < 0.0) touched.push_back(nbrs[i]);
          cand_bond[sv] = b;
          cand_owner[sv] = owner[su];
        }
      }
    }
    frontier.clear();
    for (VertexId v : touched) {
      const auto sv = static_cast<std::size_t>(v);
      owner[sv] = cand_owner[sv];
      bond[sv] = cand_bond[sv];
      // Depth of the new vertex: one past the round it was claimed in —
      // approximate via the claiming neighbor's depth. Track max depth seen.
      std::int32_t d = 0;
      for (VertexId u : g.neighbors(v)) {
        const auto su = static_cast<std::size_t>(u);
        if (owner[su] == owner[sv] && depth[su] >= 0) {
          d = std::max(d, depth[su]);
        }
      }
      depth[sv] = d + 1;
      cand_bond[sv] = -1.0;
      cand_owner[sv] = -1;
      frontier.push_back(v);
    }
  }

  // Unreached vertices (disconnected from every seed): round-robin.
  int rr = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (owner[static_cast<std::size_t>(v)] == -1) owner[static_cast<std::size_t>(v)] = rr++ % k;
  }

  // Phase 2 — fixed point ("all bonds are recomputed at each step … stops
  // when no vertex moves"): boundary vertices re-attach to the neighboring
  // liquid that binds them hardest (direct attachment weight), seeds stay.
  std::vector<char> is_seed(static_cast<std::size_t>(n), 0);
  for (VertexId s : seeds) is_seed[static_cast<std::size_t>(s)] = 1;
  std::vector<int> part_size(static_cast<std::size_t>(k), 0);
  for (VertexId v = 0; v < n; ++v) ++part_size[static_cast<std::size_t>(owner[static_cast<std::size_t>(v)])];
  std::vector<double> attach(static_cast<std::size_t>(k), 0.0);
  for (int round = 0; round < options.max_rounds; ++round) {
    bool moved = false;
    for (VertexId v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      if (is_seed[sv]) continue;
      const int own = owner[sv];
      if (part_size[static_cast<std::size_t>(own)] <= 1) continue;
      const auto nbrs = g.neighbors(v);
      const auto ws = g.neighbor_weights(v);
      static thread_local std::vector<int> colors;
      colors.clear();
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const int c = owner[static_cast<std::size_t>(nbrs[i])];
        if (attach[static_cast<std::size_t>(c)] == 0.0) colors.push_back(c);
        attach[static_cast<std::size_t>(c)] += ws[i];
      }
      int best_c = own;
      double best_a = attach[static_cast<std::size_t>(own)];
      for (int c : colors) {
        if (attach[static_cast<std::size_t>(c)] > best_a + 1e-12) {
          best_a = attach[static_cast<std::size_t>(c)];
          best_c = c;
        }
      }
      for (int c : colors) attach[static_cast<std::size_t>(c)] = 0.0;
      attach[static_cast<std::size_t>(own)] = 0.0;
      if (best_c != own) {
        owner[sv] = best_c;
        --part_size[static_cast<std::size_t>(own)];
        ++part_size[static_cast<std::size_t>(best_c)];
        moved = true;
      }
    }
    if (!moved) break;
  }
  return owner;
}

Partition percolation_partition(const Graph& g, int k,
                                const PercolationOptions& options) {
  FFP_CHECK(k >= 1 && k <= g.num_vertices(), "k out of range");
  Rng rng(options.seed);
  const auto seeds = spread_seeds(g, k, rng);
  const auto assign = percolate(g, seeds, options);
  auto part = Partition::from_assignment(g, assign, k);

  // A liquid can end up holding only its seed (no internal edge at all),
  // which the ratio criteria treat as degenerate. Feed such starved parts
  // the most-attached neighboring vertex from a well-fed part.
  for (int round = 0; round < k; ++round) {
    int starving = -1;
    for (int q : part.nonempty_parts()) {
      if (part.part_internal(q) <= 0.0) {
        starving = q;
        break;
      }
    }
    if (starving == -1) break;
    VertexId best_v = -1;
    Weight best_w = -1.0;
    for (VertexId v : part.members(starving)) {
      const auto nbrs = g.neighbors(v);
      const auto ws = g.neighbor_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const int q = part.part_of(nbrs[i]);
        if (q == starving || part.part_size(q) < 3) continue;
        if (ws[i] > best_w) {
          best_w = ws[i];
          best_v = nbrs[i];
        }
      }
    }
    if (best_v == -1) break;  // isolated seed: nothing reasonable to feed it
    part.move(best_v, starving);
  }
  return part;
}

namespace {

/// Indexed binary min-heap of local ids ordered by (dist[v], v): at most
/// one entry per vertex, moved up in place when its distance drops, so no
/// stale entry is ever pushed or popped. (dist, id) is a total order, so it
/// pops vertices in the same sequence as a lazy heap of (dist, id) pairs
/// that skips its stale entries.
class DistHeap {
 public:
  /// Empties the heap for a sweep over n vertices keyed by `dist`.
  void reset(int n, const std::vector<double>& dist) {
    items_.clear();
    pos_.assign(static_cast<std::size_t>(n), -1);
    dist_ = dist.data();
  }

  bool empty() const { return items_.empty(); }

  /// Inserts v, or restores heap order after dist[v] decreased.
  void push_or_decrease(int v) {
    int at = pos_[static_cast<std::size_t>(v)];
    if (at < 0) {
      at = static_cast<int>(items_.size());
      items_.push_back(v);
    }
    sift_up(at, v);
  }

  int pop() {
    const int top = items_.front();
    pos_[static_cast<std::size_t>(top)] = -1;
    const int last = items_.back();
    items_.pop_back();
    if (!items_.empty()) sift_down(last);
    return top;
  }

 private:
  bool before(int a, int b) const {
    const double da = dist_[a];
    const double db = dist_[b];
    return da < db || (da == db && a < b);
  }

  void place(int i, int v) {
    items_[static_cast<std::size_t>(i)] = v;
    pos_[static_cast<std::size_t>(v)] = i;
  }

  void sift_up(int i, int v) {
    while (i > 0) {
      const int parent = (i - 1) / 2;
      const int p = items_[static_cast<std::size_t>(parent)];
      if (!before(v, p)) break;
      place(i, p);
      i = parent;
    }
    place(i, v);
  }

  /// Fills the hole at the root with v.
  void sift_down(int v) {
    const int size = static_cast<int>(items_.size());
    int i = 0;
    for (int child = 1; child < size; child = 2 * i + 1) {
      int c = items_[static_cast<std::size_t>(child)];
      if (child + 1 < size) {
        const int right = items_[static_cast<std::size_t>(child) + 1];
        if (before(right, c)) {
          ++child;
          c = right;
        }
      }
      if (!before(c, v)) break;
      place(i, c);
      i = child;
    }
    place(i, v);
  }

  std::vector<int> items_;  // local ids, heap-ordered
  std::vector<int> pos_;    // local id -> index in items_, -1 when absent
  const double* dist_ = nullptr;
};

/// Scratch for the in-place bisection the fusion-fission fission hot path
/// runs on every split. The member set is compacted into a tiny local CSR
/// once per call (one unsorted pass, buffers reused across calls), so the
/// component check, the two farthest-point sweeps, and both percolation
/// phases iterate dense 0..|set| arrays instead of chasing parent-graph ids
/// through membership stamps — the set's arcs are touched several times per
/// bisect, and the compact layout makes each touch a near-free cache hit.
/// Profiling drove this shape: the original induced_subgraph + Graph
/// construction per fission dominated the entire Algorithm 1 step.
struct BisectScratch {
  // Parent-indexed, epoch-stamped membership map (O(set) per call).
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::int32_t> local;  // parent id -> local id while stamped

  // Local CSR over the set; local id == index into `vertices`. When the
  // parent graph's edge weights are uniform the weight lane stays
  // unmaterialized (empty) and the kernels substitute the constant — on
  // dense-neighborhood families (geometric) the lane was half the
  // compaction traffic for arcs whose value never varies.
  int n = 0;
  std::vector<std::int32_t> xadj;
  std::vector<std::int32_t> adj;
  std::vector<Weight> wgt;

  // Local working arrays (size n).
  std::vector<int> owner;  // -1 unclaimed, else 0/1 (or component id)
  std::vector<double> bond;
  std::vector<double> cand_bond;
  std::vector<int> cand_owner;
  std::vector<double> dist;
  DistHeap dist_heap;  // the weighted sweep's queue
  std::vector<int> frontier, touched;

  void build(const Graph& g, std::span<const VertexId> vertices,
             bool uniform) {
    n = static_cast<int>(vertices.size());
    const auto gn = static_cast<std::size_t>(g.num_vertices());
    if (stamp.size() < gn) {
      stamp.resize(gn, 0);
      local.resize(gn);
    }
    if (++epoch == 0) {  // wrapped: stale stamps could collide
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    for (int i = 0; i < n; ++i) {
      const auto v = static_cast<std::size_t>(vertices[static_cast<std::size_t>(i)]);
      stamp[v] = epoch;
      local[v] = i;
    }
    const auto un = static_cast<std::size_t>(n);
    xadj.resize(un + 1);
    owner.assign(un, -1);
    cand_bond.assign(un, -1.0);
    cand_owner.assign(un, -1);
    bond.resize(un);
    dist.resize(un);
    adj.clear();
    wgt.clear();
    xadj[0] = 0;
    if (uniform) {
      for (int i = 0; i < n; ++i) {
        const VertexId v = vertices[static_cast<std::size_t>(i)];
        for (const VertexId nb : g.neighbors(v)) {
          const auto u = static_cast<std::size_t>(nb);
          if (stamp[u] == epoch) adj.push_back(local[u]);
        }
        xadj[static_cast<std::size_t>(i) + 1] =
            static_cast<std::int32_t>(adj.size());
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      const VertexId v = vertices[static_cast<std::size_t>(i)];
      const auto nbrs = g.neighbors(v);
      const auto ws = g.neighbor_weights(v);
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const auto u = static_cast<std::size_t>(nbrs[j]);
        if (stamp[u] == epoch) {
          adj.push_back(local[u]);
          wgt.push_back(ws[j]);
        }
      }
      xadj[static_cast<std::size_t>(i) + 1] = static_cast<std::int32_t>(adj.size());
    }
  }
};

/// BFS/Dijkstra sweep in flow length 1/(1+w) over the local CSR; returns
/// the farthest reachable local vertex (== source when nothing else is)
/// and the number of reached vertices (the first sweep doubles as the
/// connectivity probe). Uniform edge weights make every flow length equal,
/// so the sweep degrades to plain BFS — no heap at all.
///
/// `far` is the first vertex settled at the largest distance, so it depends
/// on how equal distances are settled, and the coarse graphs of unit-weight
/// meshes, whose weights are small integers, have many ties. The weighted
/// sweep settles in (dist, id) order, DistHeap's total order, which decides
/// every tie; a queue with any other tie rule would move `far`, and with it
/// the split.
int farthest_local(BisectScratch& s, bool uniform, int source, int& reached) {
  reached = 1;
  if (uniform) {
    std::fill(s.dist.begin(), s.dist.begin() + s.n, -1.0);
    s.dist[static_cast<std::size_t>(source)] = 0.0;
    s.frontier.assign(1, source);
    int far = source;
    while (!s.frontier.empty()) {
      s.touched.clear();
      for (int v : s.frontier) {
        const double d = s.dist[static_cast<std::size_t>(v)];
        for (auto a = s.xadj[static_cast<std::size_t>(v)];
             a < s.xadj[static_cast<std::size_t>(v) + 1]; ++a) {
          const int u = s.adj[static_cast<std::size_t>(a)];
          if (s.dist[static_cast<std::size_t>(u)] < 0.0) {
            s.dist[static_cast<std::size_t>(u)] = d + 1.0;
            s.touched.push_back(u);
            ++reached;
          }
        }
      }
      if (!s.touched.empty()) far = s.touched.back();
      s.frontier.swap(s.touched);
    }
    return far;
  }

  std::fill(s.dist.begin(), s.dist.begin() + s.n,
            std::numeric_limits<double>::infinity());
  s.dist[static_cast<std::size_t>(source)] = 0.0;
  auto& heap = s.dist_heap;
  heap.reset(s.n, s.dist);
  heap.push_or_decrease(source);
  int far = source;
  double far_d = 0.0;
  while (!heap.empty()) {
    const int v = heap.pop();
    const double d = s.dist[static_cast<std::size_t>(v)];
    if (d > far_d) {
      far_d = d;
      far = v;
    }
    for (auto a = s.xadj[static_cast<std::size_t>(v)];
         a < s.xadj[static_cast<std::size_t>(v) + 1]; ++a) {
      const int u = s.adj[static_cast<std::size_t>(a)];
      const double nd = d + 1.0 / (1.0 + s.wgt[static_cast<std::size_t>(a)]);
      if (nd < s.dist[static_cast<std::size_t>(u)]) {
        if (s.dist[static_cast<std::size_t>(u)] ==
            std::numeric_limits<double>::infinity()) {
          ++reached;
        }
        s.dist[static_cast<std::size_t>(u)] = nd;
        heap.push_or_decrease(u);
      }
    }
  }
  return far;
}

/// The two-liquid percolation of percolate() on the local CSR (phase 1
/// synchronized dripping, phase 2 bond fixed point). Owners land in
/// s.owner; both sides are guaranteed non-empty on return. The kUniform
/// instantiation substitutes the constant edge weight `uw` for the
/// unmaterialized weight lane — identical arithmetic (every load would have
/// produced uw), none of the memory traffic.
template <bool kUniform>
void percolate_pair_local(BisectScratch& s, int seed0, int seed1,
                          int max_rounds, Weight uw) {
  const auto arc_weight = [&s, uw](std::int32_t a) {
    return kUniform ? uw : s.wgt[static_cast<std::size_t>(a)];
  };
  s.frontier.clear();
  for (int c = 0; c < 2; ++c) {
    const auto seed = static_cast<std::size_t>(c == 0 ? seed0 : seed1);
    s.owner[seed] = c;
    s.bond[seed] = 0.0;  // path sum starts empty
    s.frontier.push_back(c == 0 ? seed0 : seed1);
  }

  // Every frontier vertex of round r sits exactly r hops from its seed, so
  // the paper's 2^-d decay is a per-round constant — no per-vertex depth.
  for (int round = 0; !s.frontier.empty(); ++round) {
    const double decay = std::ldexp(1.0, -std::min(round, 50));
    s.touched.clear();
    for (int u : s.frontier) {
      const auto su = static_cast<std::size_t>(u);
      for (auto a = s.xadj[su]; a < s.xadj[su + 1]; ++a) {
        const auto sv = static_cast<std::size_t>(s.adj[static_cast<std::size_t>(a)]);
        if (s.owner[sv] != -1) continue;  // already claimed
        const double b = s.bond[su] + arc_weight(a) * decay;
        if (b > s.cand_bond[sv]) {
          if (s.cand_bond[sv] < 0.0) s.touched.push_back(static_cast<int>(sv));
          s.cand_bond[sv] = b;
          s.cand_owner[sv] = s.owner[su];
        }
      }
    }
    s.frontier.clear();
    for (int v : s.touched) {
      const auto sv = static_cast<std::size_t>(v);
      s.owner[sv] = s.cand_owner[sv];
      s.bond[sv] = s.cand_bond[sv];
      s.cand_bond[sv] = -1.0;
      s.cand_owner[sv] = -1;
      s.frontier.push_back(v);
    }
  }

  // Members unreachable from both seeds (the set need not be connected
  // here when percolation stalls): round-robin, as percolate() does.
  int rr = 0;
  int size[2] = {0, 0};
  for (int v = 0; v < s.n; ++v) {
    auto& o = s.owner[static_cast<std::size_t>(v)];
    if (o == -1) o = rr++ % 2;
    ++size[o];
  }

  // Phase 2 — bond fixed point on direct attachment weight; seeds stay.
  // Work-list driven: a vertex is re-examined only after a neighbor changed
  // sides, so convergence costs O(flips * deg) instead of full sweeps of
  // the set per round; max_rounds becomes a relaxation budget against
  // pathological oscillation. cand_bond doubles as the queued flag (it is
  // -1 for every member after phase 1).
  auto& queue = s.touched;
  queue.clear();
  for (int v = 0; v < s.n; ++v) {
    if (v == seed0 || v == seed1) continue;
    const auto sv = static_cast<std::size_t>(v);
    bool boundary = false;
    for (auto a = s.xadj[sv]; a < s.xadj[sv + 1] && !boundary; ++a) {
      boundary = s.owner[static_cast<std::size_t>(
                     s.adj[static_cast<std::size_t>(a)])] != s.owner[sv];
    }
    if (!boundary) continue;  // interior: nothing to re-attach to
    s.cand_bond[sv] = 1.0;  // queued
    queue.push_back(v);
  }
  std::int64_t budget = static_cast<std::int64_t>(max_rounds) * s.n;
  for (std::size_t head = 0; head < queue.size() && budget > 0; --budget) {
    const int v = queue[head++];
    const auto sv = static_cast<std::size_t>(v);
    s.cand_bond[sv] = -1.0;  // dequeued
    const int own = s.owner[sv];
    if (size[own] <= 1) continue;
    double attach[2] = {0.0, 0.0};
    for (auto a = s.xadj[sv]; a < s.xadj[sv + 1]; ++a) {
      attach[s.owner[static_cast<std::size_t>(s.adj[static_cast<std::size_t>(a)])]] +=
          arc_weight(a);
    }
    const int other = 1 - own;
    if (attach[other] > attach[own] + 1e-12) {
      s.owner[sv] = other;
      --size[own];
      ++size[other];
      for (auto a = s.xadj[sv]; a < s.xadj[sv + 1]; ++a) {
        const auto su = static_cast<std::size_t>(s.adj[static_cast<std::size_t>(a)]);
        if (static_cast<int>(su) != seed0 && static_cast<int>(su) != seed1 &&
            s.cand_bond[su] < 0.0) {
          s.cand_bond[su] = 1.0;
          queue.push_back(static_cast<int>(su));
        }
      }
    }
  }
  // Leave cand_bond clean (-1) in case the scratch is reused before build().
  std::fill(s.cand_bond.begin(), s.cand_bond.begin() + s.n, -1.0);

  // Guarantee non-empty sides.
  if (size[0] == 0) {
    s.owner[static_cast<std::size_t>(seed0)] = 0;
  } else if (size[1] == 0) {
    s.owner[static_cast<std::size_t>(seed1)] = 1;
  }
}

}  // namespace

void percolation_bisect_into(const Graph& g,
                             std::span<const VertexId> vertices, Rng& rng,
                             std::vector<int>& side) {
  FFP_CHECK(vertices.size() >= 2, "cannot bisect fewer than two vertices");
  const bool uniform = g.has_uniform_edge_weights();
  static thread_local BisectScratch s;
  s.build(g, vertices, uniform);

  int a = static_cast<int>(rng.below(vertices.size()));
  int reached = 0;
  a = farthest_local(s, uniform, a, reached);  // doubles as connectivity probe

  if (reached < s.n) {
    // Disconnected set. Label components (owner doubles as the label)…
    int comp_count = 0;
    auto& stack = s.frontier;
    for (int root = 0; root < s.n; ++root) {
      if (s.owner[static_cast<std::size_t>(root)] != -1) continue;
      const int id = comp_count++;
      s.owner[static_cast<std::size_t>(root)] = id;
      stack.assign(1, root);
      while (!stack.empty()) {
        const auto sv = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        for (auto a2 = s.xadj[sv]; a2 < s.xadj[sv + 1]; ++a2) {
          const int u = s.adj[static_cast<std::size_t>(a2)];
          if (s.owner[static_cast<std::size_t>(u)] == -1) {
            s.owner[static_cast<std::size_t>(u)] = id;
            stack.push_back(u);
          }
        }
      }
    }
    // …then assign whole components to sides, largest first, lighter side
    // first — a balanced split that never cuts an edge. The group buffers
    // persist across calls (clear keeps capacity) so repeated disconnected
    // splits stop churning inner-vector allocations.
    static thread_local std::vector<std::vector<int>> groups;
    if (groups.size() < static_cast<std::size_t>(comp_count)) {
      groups.resize(static_cast<std::size_t>(comp_count));
    }
    for (int c = 0; c < comp_count; ++c) {
      groups[static_cast<std::size_t>(c)].clear();
    }
    for (int v = 0; v < s.n; ++v) {
      groups[static_cast<std::size_t>(s.owner[static_cast<std::size_t>(v)])]
          .push_back(v);
    }
    const auto live = groups.begin() + comp_count;
    std::sort(groups.begin(), live,
              [](const auto& a, const auto& b) { return a.size() > b.size(); });
    side.assign(vertices.size(), 0);
    double w0 = 0.0, w1 = 0.0;
    for (auto it = groups.begin(); it != live; ++it) {
      const auto& grp = *it;
      double gw = 0.0;
      for (int v : grp) {
        gw += g.vertex_weight(vertices[static_cast<std::size_t>(v)]);
      }
      const int sd = w0 <= w1 ? 0 : 1;
      (sd == 0 ? w0 : w1) += gw;
      for (int v : grp) side[static_cast<std::size_t>(v)] = sd;
    }
    // Both sides must be non-empty (single component impossible here).
    return;
  }

  // Connected: cut from a flow-far-apart pair (two farthest-point sweeps in
  // flow distance, so the cut falls along weak-flow boundaries); the first
  // sweep above already moved `a` to a far point.
  const int partner_sweep = farthest_local(s, uniform, a, reached);
  const int partner = partner_sweep != a ? partner_sweep : (a == 0 ? 1 : 0);
  if (uniform) {
    percolate_pair_local<true>(s, a, partner, PercolationOptions{}.max_rounds,
                               g.min_edge_weight());
  } else {
    percolate_pair_local<false>(s, a, partner, PercolationOptions{}.max_rounds,
                                0.0);
  }

  side.assign(s.owner.begin(), s.owner.begin() + s.n);
}

std::vector<int> percolation_bisect(const Graph& g,
                                    std::span<const VertexId> vertices,
                                    Rng& rng) {
  std::vector<int> side;
  percolation_bisect_into(g, vertices, rng, side);
  return side;
}

}  // namespace ffp
