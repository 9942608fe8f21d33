#include "core/fusion_fission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "metaheuristics/percolation.hpp"
#include "partition/objective_terms.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// The choice_term_bias per-atom leak ratio (cut leaking out vs weight held
/// inside), tracked incrementally as the ObjectiveTracker's auxiliary term
/// so step() never rescans all atoms.
double leak_ratio_term(const Partition& p, int q) {
  const double cut = p.part_cut(q);
  const double internal = p.part_internal(q);
  if (internal <= 0.0) return cut > 0.0 ? 1e6 : 0.0;
  return cut / internal;
}

}  // namespace

struct FusionFission::State {
  ObjectiveTracker tracker;       // current molecule + running objective
  double current_energy = 0.0;
  Partition best;                 // best energy overall (reheat target)
  double best_energy = std::numeric_limits<double>::infinity();
  std::optional<Partition> best_at_k;  // best objective with exactly k parts
  double best_at_k_value = std::numeric_limits<double>::infinity();
  double temperature = 0.0;
  LawTable laws;
  Rng rng;
  FusionFissionResult* result = nullptr;
  bool init_mode = false;  // Algorithm 2: no nucleon-triggered fission
  /// Best objective per visited part count, flat-indexed by p — the per-step
  /// record note_partition keeps without a map lookup in the hot loop; run()
  /// converts it into FusionFissionResult::best_by_part_count at the end.
  std::vector<double> best_by_p;
  // The run's hooks; the checkpoint pump reads its interval and sink here.
  // ckpt_on is armed once in run(), so the disabled path is a single
  // branch in the hot loops.
  const RunHooks* hooks = nullptr;
  bool ckpt_on = false;
  WallTimer ckpt_timer;
  double ckpt_emitted = std::numeric_limits<double>::infinity();

  State(Partition p, ObjectiveKind kind, int max_atom, double delta,
        std::uint64_t seed)
      : tracker(std::move(p), kind),
        best(tracker.partition()),
        laws(max_atom, delta),
        rng(seed) {}

  const Partition& cur() const { return tracker.partition(); }
};

FusionFission::FusionFission(const Graph& g, int k,
                             FusionFissionOptions options)
    : g_(&g), k_(k), options_(options) {
  FFP_CHECK(k >= 2, "k must be >= 2");
  FFP_CHECK(g.num_vertices() >= k, "graph has fewer vertices than parts");
  FFP_CHECK(options.tmax > options.tmin && options.tmin >= 0.0,
            "need tmax > tmin >= 0");
  FFP_CHECK(options.nbt >= 1, "nbt must be >= 1");
  choice_.target_size = static_cast<double>(g.num_vertices()) / k;
  choice_.tmax = options.tmax;
  choice_.tmin = options.tmin;
  choice_.slope = options.choice_slope;
  choice_.offset = options.choice_offset;
  scaling_ = make_scaling(options.scaling, options.objective,
                          g.total_edge_weight());
}

double FusionFission::energy_now(const State& s) const {
  return partition_energy(s.tracker.value(), s.cur().num_nonempty_parts(),
                          *scaling_);
}

double FusionFission::heat_of(double temperature) const {
  return (temperature - options_.tmin) / (options_.tmax - options_.tmin);
}

// ---------------------------------------------------------------------------
// Shared operators
// ---------------------------------------------------------------------------

std::pair<int, Weight> FusionFission::select_fusion_partner(
    const Partition& cur, double heat, int atom, Rng& rng) const {
  // §4.2: "a second partition is selected according to its size, its
  // distance to the first one, and temperature". Connection weight is the
  // inverse distance; the size preference cools with temperature: hot → big
  // merged atoms are easy, cold → strongly size-penalized. The scratch is
  // thread_local because concurrent portfolio restarts each run an engine.
  static thread_local PartMarkScratch conns;
  cur.connections(atom, conns);
  const auto partners = conns.marked();
  if (partners.empty()) return {-1, 0.0};

  const double size_a = cur.part_size(atom);
  static thread_local std::vector<double> scores;
  scores.clear();
  for (const int b : partners) {
    const double merged = size_a + cur.part_size(b);
    const double over = std::max(0.0, merged / choice_.target_size - 1.0);
    // Hot: penalty exponent ~0; cold: strong exponential size penalty.
    const double size_penalty = std::exp(-over * (1.0 - heat) * 3.0);
    scores.push_back(conns.weight(b) * size_penalty);
  }
  const auto pick = rng.weighted_pick(scores);
  const int b = partners[pick < scores.size() ? pick : 0];
  return {b, conns.weight(b)};
}

std::vector<VertexId> FusionFission::pick_ejected(State& s, int atom,
                                                  int count) {
  // Eject the most "misplaced" boundary nucleons: those whose best
  // relocation improves the objective the most (external-minus-internal
  // connection is the Cut special case of this rule). Never empties the
  // atom.
  std::vector<VertexId> out;
  if (count <= 0) return out;
  const Partition& cur = s.cur();
  const auto members = cur.members(atom);
  const int keep = 1;
  count = std::min<int>(count, static_cast<int>(members.size()) - keep);
  if (count <= 0) return out;

  // One neighbor scan per nucleon gathers its connection weight to every
  // adjacent atom; each candidate's exact objective delta is then O(1) via
  // the shared move identities — no per-candidate rescans.
  static thread_local std::vector<std::pair<double, VertexId>> scored;
  scored.clear();
  scored.reserve(members.size());
  static thread_local PartMarkScratch adjacent;
  for (VertexId v : members) {
    const Weight internal = cur.neighbor_parts(v, adjacent);
    bool boundary = false;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (int q : adjacent.marked()) {
      boundary = boundary || adjacent.weight(q) > 0.0;
      const double delta = detail::move_delta_from_profile(
          cur, options_.objective, v, q, internal, adjacent.weight(q));
      best_gain = std::max(best_gain, -delta);
    }
    // Interior nucleon: no positive connection to another atom (edge
    // weights are non-negative), so not ejectable.
    if (boundary) scored.emplace_back(best_gain, v);
  }
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(count),
                                          scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(take),
                    scored.end(), std::greater<>());
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

int FusionFission::absorb_nucleon(State& s, VertexId v) {
  // nfusion: incorporate v into a connected atom (§4.2). The paper leaves
  // the choice among connected atoms open; we take the one with the best
  // objective delta (ties go to the first atom met in v's neighbor list),
  // which makes every ejection a genuine local repair of the criterion
  // being optimized.
  const Partition& cur = s.cur();
  const int from = cur.part_of(v);
  static thread_local PartMarkScratch candidates;
  const Weight ext_from = cur.neighbor_parts(v, candidates);
  ObjectiveTracker::TrialMove best;
  best.delta = std::numeric_limits<double>::infinity();
  for (int q : candidates.marked()) {
    const auto trial =
        s.tracker.trial_move(v, q, {ext_from, candidates.weight(q)});
    if (trial.delta < best.delta) best = trial;
  }
  if (best.target == -1) {
    // Isolated from every other atom: pick any other non-empty atom (v has
    // no edge into it).
    for (int q : cur.nonempty_parts()) {
      if (q != from) {
        best = s.tracker.trial_move(v, q, {ext_from, 0.0});
        break;
      }
    }
  }
  if (best.target != -1 && cur.part_size(from) > 1) {
    s.tracker.move(best);
    ++s.result->ejections;
  }
  return best.target;
}

void FusionFission::split_atom(State& s, int atom, Rng& rng) {
  const auto members = s.cur().members(atom);
  if (members.size() < 2) return;

  static thread_local std::vector<int> side;
  if (options_.percolation_fission) {
    percolation_bisect_into(*g_, members, rng, side);
  } else {
    // Ablation / fallback: random halving.
    side.assign(members.size(), 0);
    for (std::size_t i = members.size() / 2; i < members.size(); ++i) {
      side[i] = 1;
    }
    rng.shuffle(side);
  }
  // Keep the smaller half as the side to relocate (both halves' statistics
  // are rebuilt from the same arc scan either way).
  const auto ones = static_cast<std::size_t>(
      std::count(side.begin(), side.end(), 1));
  const int move_label = 2 * ones > members.size() ? 0 : 1;
  static thread_local std::vector<VertexId> moved;
  moved.clear();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (side[i] == move_label) moved.push_back(members[i]);
  }

  // Find a part slot for the new half (reuse an empty slot if any).
  int fresh = -1;
  for (int q = 0; q < s.cur().num_parts(); ++q) {
    if (s.cur().part_size(q) == 0) {
      fresh = q;
      break;
    }
  }
  if (fresh == -1) fresh = s.tracker.make_part();

  if (moved.empty()) {
    // Percolation labeled everything one side (pathological subgraph):
    // force a non-trivial split.
    s.tracker.move(members.back(), fresh);
  } else {
    // The minority-side choice above caps |moved| at half the atom, so
    // this is always a proper subset.
    FFP_DCHECK(moved.size() < members.size());
    s.tracker.split_part(atom, fresh, moved);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 1 branches
// ---------------------------------------------------------------------------

void FusionFission::do_fusion(State& s, int atom, Rng& rng) {
  // Algorithm 2 (init) keeps the full size penalty (heat 0): at tmax the
  // penalty vanishes and on skewed degree distributions hub atoms then win
  // every connection-weighted pick, growing one giant atom — which turns
  // the ejection / connection scans quadratic and keeps the atom count
  // from ever reaching k ("fusion-biased" must still mean balanced
  // growth). Measured on powerlaw n=16384: init 1.47s → 0.06s.
  const double heat = s.init_mode ? 0.0 : heat_of(s.temperature);
  const auto [partner, w_conn] =
      select_fusion_partner(s.cur(), heat, atom, rng);
  if (partner == -1) return;  // isolated atom; nothing to fuse with
  ++s.result->fusions;

  // Merge the smaller atom into the larger: O(|smaller|) relabel plus the
  // O(1) merge identities — no per-vertex neighbor scans.
  int src = atom, dst = partner;
  if (s.cur().part_size(src) > s.cur().part_size(dst)) std::swap(src, dst);
  const int merged_size = s.cur().part_size(src) + s.cur().part_size(dst);
  s.tracker.merge_parts(src, dst, w_conn);

  // The fusion law for the merged size may eject nucleons.
  const int size_for_law = std::min(merged_size, s.laws.max_atom_size());
  const int eject =
      options_.use_laws ? s.laws.sample(LawKind::Fusion, size_for_law, rng) : 0;
  for (VertexId v : pick_ejected(s, dst, eject)) {
    absorb_nucleon(s, v);
  }

  if (options_.use_laws) {
    const double before = s.current_energy;
    const double after = energy_now(s);
    s.laws.update(LawKind::Fusion, size_for_law, eject, after < before);
  }
}

void FusionFission::do_fission(State& s, int atom, Rng& rng) {
  if (s.cur().part_size(atom) < 2) return;
  ++s.result->fissions;

  const int size_for_law =
      std::min(s.cur().part_size(atom), s.laws.max_atom_size());
  split_atom(s, atom, rng);

  const int eject =
      options_.use_laws ? s.laws.sample(LawKind::Fission, size_for_law, rng) : 0;
  const auto ejected = pick_ejected(s, atom, eject);
  const double heat = heat_of(s.temperature);
  for (VertexId v : ejected) {
    // §4.2: hot nucleons trigger a simple fission of a connected atom; cold
    // nucleons are absorbed. Algorithm 2 (init) always absorbs.
    if (!s.init_mode && rng.bernoulli(heat)) {
      const int neighbor_atom = absorb_nucleon(s, v);
      if (neighbor_atom != -1 && s.cur().part_size(neighbor_atom) >= 2) {
        split_atom(s, neighbor_atom, rng);  // nfission: no ejection
      }
    } else {
      absorb_nucleon(s, v);
    }
  }

  if (options_.use_laws) {
    const double before = s.current_energy;
    const double after = energy_now(s);
    s.laws.update(LawKind::Fission, size_for_law, eject, after < before);
  }
}

void FusionFission::maybe_checkpoint(State& s) {
  if (s.ckpt_timer.elapsed_millis() <
      static_cast<double>(s.hooks->checkpoint_every_ms)) {
    return;
  }
  flush_checkpoint(s);
  s.ckpt_timer.reset();
}

void FusionFission::flush_checkpoint(State& s) {
  if (!s.best_at_k.has_value() || s.best_at_k_value >= s.ckpt_emitted) return;
  // The live best-at-k molecule can carry empty part slots; checkpoints
  // store the compacted assignment so a resume (or any other consumer)
  // sees part ids 0..k-1 exactly as the final result would.
  Partition snapshot = *s.best_at_k;
  snapshot.compact();
  const auto parts = snapshot.assignment();
  s.hooks->checkpoint_sink(std::vector<int>(parts.begin(), parts.end()),
                           s.best_at_k_value);
  s.ckpt_emitted = s.best_at_k_value;
}

void FusionFission::note_partition(State& s, AnytimeRecorder* recorder) {
  const double value = s.tracker.value();
  const int p = s.cur().num_nonempty_parts();
  s.current_energy = partition_energy(value, p, *scaling_);

  if (static_cast<int>(s.best_by_p.size()) <= p) {
    s.best_by_p.resize(static_cast<std::size_t>(p) + 1,
                       std::numeric_limits<double>::infinity());
  }
  auto& best_at_p = s.best_by_p[static_cast<std::size_t>(p)];
  if (value < best_at_p) best_at_p = value;

  if (s.current_energy < s.best_energy) {
    s.best_energy = s.current_energy;
    s.best = s.cur();
  }
  if (p == k_ && value < s.best_at_k_value) {
    s.best_at_k_value = value;
    s.best_at_k = s.cur();
    if (recorder != nullptr) recorder->record(value);
  }
}

void FusionFission::reheat(State& s) {
  // The paper does not say which "best" the reheat restarts from;
  // restarting from the best TARGET-k partition keeps the drift centered
  // on k, which measures better than restarting from the best-energy
  // molecule at any k.
  s.temperature = options_.tmax;
  if (s.best_at_k.has_value()) {
    s.tracker.reset(*s.best_at_k, s.best_at_k_value);
    s.current_energy = partition_energy(
        s.best_at_k_value, s.cur().num_nonempty_parts(), *scaling_);
  } else {
    s.tracker.reset(s.best);
    s.current_energy = s.best_energy;
  }
  ++s.result->reheats;
}

void FusionFission::step(State& s) {
  ++s.result->steps;

  // choose_atom: uniformly over non-empty atoms.
  const auto atoms = s.cur().nonempty_parts();
  const int atom = atoms[s.rng.below(atoms.size())];

  double p_fission =
      fission_probability(s.cur().part_size(atom), s.temperature, choice_);

  // Customized choice function (see FusionFissionOptions::choice_term_bias):
  // an atom whose ratio term is worse than the molecule average is pushed
  // toward fission, a better-than-average atom toward staying fused. The
  // molecule-wide term sum is the tracker's auxiliary sum — O(1) here.
  if (options_.choice_term_bias > 0.0 && !s.init_mode) {
    const double term = leak_ratio_term(s.cur(), atom);
    const double avg_term =
        s.tracker.aux_sum() /
        static_cast<double>(s.cur().num_nonempty_parts());
    if (avg_term > 0.0) {
      const double bias = std::clamp((term - avg_term) / avg_term, -1.0, 1.0);
      p_fission = std::clamp(
          p_fission + options_.choice_term_bias * bias, 0.0, 1.0);
    }
  }

  const bool can_fission = s.cur().part_size(atom) >= 2;
  const bool can_fusion = s.cur().num_nonempty_parts() >= 2;
  if ((s.rng.bernoulli(p_fission) && can_fission) || !can_fusion) {
    if (can_fission) do_fission(s, atom, s.rng);
  } else {
    do_fusion(s, atom, s.rng);
  }
}

Partition FusionFission::initialize() {
  FusionFissionResult scratch{Partition(*g_, 1), 0.0, 0.0, {}, 0, 0, 0, 0, 0};
  State s(Partition::singletons(*g_), options_.objective, g_->num_vertices(),
          options_.law_delta, options_.seed ^ 0xabcdef12345ULL);
  s.result = &scratch;
  s.init_mode = true;
  s.temperature = options_.tmax;  // fixed: Algorithm 2 removes temperature
  s.current_energy = energy_now(s);

  // Fusion-biased choice until the atom count first reaches k: with n
  // singleton atoms every atom is far below n̄, so choice() picks fusion
  // nearly always; each fusion reduces the atom count by one. Every energy
  // read here is O(1) off the tracker — Algorithm 2 used to be O(n²) in
  // full evaluate() calls.
  // Stall guard: on disconnected graphs (Chung–Lu powerlaw leaves isolated
  // vertices) the atom count can never drop below the component count, so
  // "until the count reaches k" would burn the whole step cap churning
  // fission/fusion at the equilibrium. Exit once a full sweep's worth of
  // steps passes with no new minimum part count.
  const std::int64_t max_steps = 8LL * g_->num_vertices() + 64;
  int min_parts = s.cur().num_nonempty_parts();
  std::int64_t last_progress = 0;
  for (std::int64_t i = 0;
       i < max_steps && s.cur().num_nonempty_parts() > k_; ++i) {
    step(s);
    s.current_energy = energy_now(s);
    const int parts = s.cur().num_nonempty_parts();
    if (parts < min_parts) {
      min_parts = parts;
      last_progress = i;
    } else if (i - last_progress > 8LL * parts + 64) {
      break;
    }
  }
  Partition out = std::move(s.tracker).take();
  out.compact();
  return out;
}

FusionFissionResult FusionFission::run(const StopCondition& stop,
                                       AnytimeRecorder* recorder,
                                       const RunHooks& hooks) {
  FusionFissionResult result{Partition(*g_, 1), 0.0, 0.0, {}, 0, 0, 0, 0, 0};

  // Algorithm 2: build the starting near-k molecule from singletons
  // ("the algorithm of fusion fission starts with the worst
  // initialization" — the recorder clock covers it). A warm start
  // replaces Algorithm 2 entirely: the loop operates on any molecule, and
  // when the restored partition has exactly k parts the first
  // note_partition below seeds best-at-k from it, which is what makes a
  // resumed run monotone with respect to its checkpoint.
  if (recorder != nullptr) recorder->start();
  Partition start = Partition(*g_, 1);
  if (hooks.warm_start != nullptr) {
    FFP_CHECK(static_cast<VertexId>(hooks.warm_start->size()) ==
                  g_->num_vertices(),
              "warm_start assignment covers ", hooks.warm_start->size(),
              " vertices, graph has ", g_->num_vertices());
    start = Partition::from_assignment(*g_, *hooks.warm_start);
  } else {
    start = initialize();
  }

  State s(std::move(start), options_.objective, g_->num_vertices(),
          options_.law_delta, options_.seed);
  s.result = &result;
  s.temperature = options_.tmax;
  s.hooks = &hooks;
  s.ckpt_on = hooks.checkpoint_sink != nullptr && hooks.checkpoint_every_ms > 0;
  if (options_.choice_term_bias > 0.0) s.tracker.track_aux(&leak_ratio_term);
  note_partition(s, recorder);
  if (hooks.warm_start != nullptr && s.best_at_k.has_value() &&
      hooks.warm_start_value < s.best_at_k_value) {
    // Same partition, two float renderings of its objective (incremental
    // tracker of the writing run vs this run's fresh accumulation): keep
    // the checkpointed one so a resume can never report an ulp worse.
    s.best_at_k_value = hooks.warm_start_value;
  }
  if (hooks.incumbent != nullptr) {
    // The memetic-crossover cap: best-at-k starts at the incumbent (the
    // better parent), so the result is min(search, incumbent) whatever
    // the overlay start evolves into. Adopt the lower of the archived
    // value and a fresh evaluation — same ulp discipline as warm starts.
    FFP_CHECK(static_cast<VertexId>(hooks.incumbent->size()) ==
                  g_->num_vertices(),
              "incumbent assignment covers ", hooks.incumbent->size(),
              " vertices, graph has ", g_->num_vertices());
    Partition inc = Partition::from_assignment(*g_, *hooks.incumbent);
    if (inc.num_nonempty_parts() == k_) {
      double value = objective(options_.objective).evaluate(inc);
      if (hooks.incumbent_value < value) value = hooks.incumbent_value;
      if (value < s.best_at_k_value) {
        s.best_at_k_value = value;
        s.best_at_k = std::move(inc);
        if (recorder != nullptr) recorder->record(value);
      }
    }
  }
  // Seed the reheat target even if we never hit k exactly before freezing.
  s.best = s.cur();
  s.best_energy = s.current_energy;

  // Algorithm 1: linear cooling, reheat at the freezing point.
  const double t_step =
      (options_.tmax - options_.tmin) / static_cast<double>(options_.nbt);
  std::int64_t steps = 0;
  while (!stop.done(steps)) {
    ++steps;
    step(s);
    note_partition(s, recorder);
    // Clock reads amortized to every 64th step; emits are rarer still.
    if (s.ckpt_on && (steps & 63) == 0) maybe_checkpoint(s);

    s.temperature -= t_step;
    if (s.temperature <= options_.tmin) reheat(s);
  }
  // Final flush: the checkpoint on disk always matches the best this run
  // will report, even when the run was shorter than one interval.
  if (s.ckpt_on) flush_checkpoint(s);

  // Result: best at k if we ever reached k, else force the best overall to
  // k parts by splitting/merging (degenerate inputs only).
  if (s.best_at_k.has_value()) {
    result.best = std::move(*s.best_at_k);
    result.best_value = s.best_at_k_value;
  } else {
    s.tracker.reset(s.best);
    while (s.cur().num_nonempty_parts() > k_) {
      const auto atoms = s.cur().nonempty_parts();
      int smallest = atoms[0], second = -1;
      for (int q : atoms) {
        if (s.cur().part_size(q) < s.cur().part_size(smallest)) smallest = q;
      }
      for (int q : atoms) {
        if (q != smallest) {
          second = q;
          break;
        }
      }
      // Force-merge (do_fusion could no-op on an isolated atom and loop).
      std::vector<VertexId> to_move(s.cur().members(smallest).begin(),
                                    s.cur().members(smallest).end());
      for (VertexId v : to_move) s.tracker.move(v, second);
    }
    while (s.cur().num_nonempty_parts() < k_) {
      const auto atoms = s.cur().nonempty_parts();
      int largest = atoms[0];
      for (int q : atoms) {
        if (s.cur().part_size(q) > s.cur().part_size(largest)) largest = q;
      }
      if (s.cur().part_size(largest) < 2) break;
      split_atom(s, largest, s.rng);
    }
    result.best = s.cur();
    result.best_value = s.tracker.value();
  }
  result.best.compact();
  result.best_energy =
      partition_energy(result.best_value, result.best.num_nonempty_parts(),
                       *scaling_);
  for (std::size_t p = 0; p < s.best_by_p.size(); ++p) {
    if (std::isfinite(s.best_by_p[p])) {
      result.best_by_part_count.emplace(static_cast<int>(p), s.best_by_p[p]);
    }
  }
  return result;
}

}  // namespace ffp
