// Partition of a graph's vertices into parts ("atoms" in fusion-fission
// terms), with O(deg) incremental bookkeeping under single-vertex moves.
//
// The part count is dynamic: parts can be created (make_part) and can become
// empty, which is exactly what the fusion-fission metaheuristic needs. All
// per-part statistics the paper's objectives use are maintained
// incrementally:
//   - cut(A, V−A): total weight of edges with exactly one endpoint in A,
//   - W(A): the paper's internal weight, summed over *ordered* pairs (each
//     internal undirected edge counts twice) so that
//     assoc(A,V) = cut(A,V−A) + W(A) equals vol(A),
//   - vertex count and vertex weight of A,
//   - member list of A (unordered, O(1) move via swap-remove).
//
// Every move decision starts from one neighbor scan, neighbor_parts: it
// gives v's weight to its own part and to each adjacent part, and from
// those the caller prices every candidate target and applies the winner
// with move(v, target, profile), without scanning v again.
//
// Thread safety: every const member function only reads state (scans
// write into the caller's PartMarkScratch), so any number of threads may
// read one Partition concurrently as long as no thread mutates it.
// Mutating members are not synchronized; mutation requires exclusive
// access.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "partition/part_scratch.hpp"

namespace ffp {

class Partition {
 public:
  /// All vertices in part 0, with `num_parts` part slots available.
  Partition(const Graph& g, int num_parts);

  /// Adopts an explicit assignment. Part ids must be in [0, num_parts);
  /// pass num_parts = -1 to deduce it as max(id)+1.
  static Partition from_assignment(const Graph& g, std::span<const int> parts,
                                   int num_parts = -1);

  /// Every vertex alone in its own part (fusion-fission Algorithm 2 start).
  static Partition singletons(const Graph& g);

  const Graph& graph() const { return *g_; }

  /// Number of part slots (some may be empty).
  int num_parts() const { return static_cast<int>(cut_.size()); }
  int num_nonempty_parts() const { return static_cast<int>(nonempty_.size()); }
  /// Ids of the non-empty parts (unordered, stable under non-move calls).
  std::span<const int> nonempty_parts() const { return nonempty_; }

  int part_of(VertexId v) const {
    FFP_DCHECK(v >= 0 && v < graph().num_vertices());
    return part_[static_cast<std::size_t>(v)];
  }

  /// The one per-vertex move scan: returns v's connection weight to its
  /// own part and leaves every other part adjacent to v, with v's
  /// connection weight to it, in `adjacent`, in first-seen neighbor order.
  /// {returned weight, adjacent.weight(t)} is bit-identical to
  /// move_profile(v, t), so a caller prices every candidate from this one
  /// scan and applies its choice with move(v, t, profile). O(deg(v)).
  Weight neighbor_parts(VertexId v, PartMarkScratch& adjacent) const {
    const int own = part_of(v);
    adjacent.begin(num_parts());
    Weight own_weight = 0.0;
    const auto nbrs = g_->neighbors(v);
    const auto ws = g_->neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const int q = part_[static_cast<std::size_t>(nbrs[i])];
      if (q == own) {
        own_weight += ws[i];
      } else {
        adjacent.add_weight(q, ws[i]);
      }
    }
    return own_weight;
  }

  /// Moves v to part `target` and updates all statistics in O(deg(v)).
  void move(VertexId v, int target);

  /// Merges every vertex of `src` into `dst` in O(|src|) — no neighbor
  /// scans. `w_between` must be the total connection weight between the two
  /// parts (Σ w(e) over edges with one endpoint in each, each edge once),
  /// which fusion callers already hold from connections(); it closes the
  /// merge identities cut(S∪D) = cut(S) + cut(D) − 2w and
  /// W(S∪D) = W(S) + W(D) + 2w. Checked against a fresh recompute in debug
  /// builds. src must be non-empty and distinct from dst.
  void merge_into(int src, int dst, Weight w_between);

  /// Bulk fission: moves every vertex of `moved` (a non-empty proper subset
  /// of part `src`'s members) into the empty part `fresh`, rebuilding both
  /// parts' statistics from one scan over the moved vertices' arcs — the
  /// split identities W(S) = W(A) + W(B) + 2w(A,B) and
  /// cut(X) = vol(X) − W(X) close the rest. O(|src| + Σ deg(moved)),
  /// versus per-vertex move() paying heavy bookkeeping per call.
  void split_off(int src, int fresh, std::span<const VertexId> moved);

  /// Adds an empty part slot and returns its id.
  int make_part();

  // Per-part statistics. Empty parts report zeros.
  Weight part_cut(int p) const { return cut_[check_part(p)]; }
  Weight part_internal(int p) const { return internal_[check_part(p)]; }
  Weight part_vertex_weight(int p) const { return vweight_[check_part(p)]; }
  int part_size(int p) const {
    return static_cast<int>(members_[check_part(p)].size());
  }
  std::span<const VertexId> members(int p) const {
    return members_[check_part(p)];
  }

  /// Σ_A cut(A, V−A) over all parts — the paper's Cut(P) numerator family.
  /// Equals 2× the conventional edge cut.
  Weight total_cut_pairs() const { return total_cut_pairs_; }
  /// Conventional edge cut (each cut edge once).
  Weight edge_cut() const { return total_cut_pairs_ / 2.0; }

  /// Σ of w(v,u) over neighbors u of v lying in part p. O(deg(v)).
  Weight ext_degree(VertexId v, int p) const;

  /// Both ext_degree values needed to evaluate a move, in one scan.
  struct MoveProfile {
    Weight ext_from = 0.0;  ///< connection of v to its current part
    Weight ext_to = 0.0;    ///< connection of v to the target part
  };
  MoveProfile move_profile(VertexId v, int target) const;

  /// As move(v, target), reusing a profile the caller already computed for
  /// THIS exact state (via neighbor_parts or move_profile) — skips the
  /// neighbor scan, making the apply O(1) beyond member bookkeeping.
  /// Checked against a fresh scan in debug builds.
  void move(VertexId v, int target, const MoveProfile& profile);

  /// Total connection weight from part p to every other part it touches,
  /// left in `adjacent` in first-seen order over p's members and their
  /// arcs. O(Σ deg over members).
  void connections(int p, PartMarkScratch& adjacent) const;

  /// Raw assignment view (for I/O and interop).
  std::span<const int> assignment() const { return part_; }

  /// Renumbers parts so the non-empty ones are 0..p-1; returns old->new map
  /// (-1 for dropped empty slots).
  std::vector<int> compact();

  /// Recomputes every statistic from scratch and FFP_CHECKs it against the
  /// incremental state. Test/debug hook; throws on divergence.
  void validate() const;

 private:
  std::size_t check_part(int p) const {
    FFP_DCHECK(p >= 0 && p < num_parts(), "part id out of range");
    return static_cast<std::size_t>(p);
  }
  void rebuild();  // full recompute of stats from part_

  const Graph* g_ = nullptr;
  std::vector<int> part_;                        // per vertex
  std::vector<std::vector<VertexId>> members_;   // per part
  std::vector<std::int32_t> pos_in_part_;        // per vertex
  std::vector<Weight> cut_;                      // per part: cut(A, V−A)
  std::vector<Weight> internal_;                 // per part: W(A), ordered pairs
  std::vector<Weight> vweight_;                  // per part
  std::vector<int> nonempty_;                    // ids of non-empty parts
  std::vector<std::int32_t> nonempty_pos_;       // per part: index in nonempty_, -1 if empty
  Weight total_cut_pairs_ = 0.0;
};

}  // namespace ffp
