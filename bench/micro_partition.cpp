// Microbenchmarks for the hot path of every metaheuristic: Partition::move
// and the objective move deltas.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "partition/objectives.hpp"
#include "util/rng.hpp"

namespace {

using namespace ffp;

Partition random_partition(const Graph& g, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> assign(static_cast<std::size_t>(g.num_vertices()));
  for (auto& a : assign) a = static_cast<int>(rng.below(k));
  return Partition::from_assignment(g, assign, k);
}

void BM_PartitionMove(benchmark::State& state) {
  const auto g = make_random_geometric(2000, 0.04, 3);
  auto p = random_partition(g, 32, 5);
  Rng rng(7);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    const int t = static_cast<int>(rng.below(32));
    p.move(v, t);
    benchmark::DoNotOptimize(p.total_cut_pairs());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionMove);

void BM_MoveDelta(benchmark::State& state) {
  const auto kind = static_cast<ObjectiveKind>(state.range(0));
  const auto g = make_random_geometric(2000, 0.04, 3);
  auto p = random_partition(g, 32, 5);
  const auto& fn = objective(kind);
  Rng rng(9);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(
        rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    const int t = static_cast<int>(rng.below(32));
    benchmark::DoNotOptimize(fn.move_delta(p, v, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MoveDelta)
    ->Arg(static_cast<int>(ObjectiveKind::Cut))
    ->Arg(static_cast<int>(ObjectiveKind::NormalizedCut))
    ->Arg(static_cast<int>(ObjectiveKind::MinMaxCut));

void BM_Evaluate(benchmark::State& state) {
  const auto kind = static_cast<ObjectiveKind>(state.range(0));
  const auto g = make_random_geometric(2000, 0.04, 3);
  const auto p = random_partition(g, 32, 5);
  const auto& fn = objective(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn.evaluate(p));
  }
}
BENCHMARK(BM_Evaluate)
    ->Arg(static_cast<int>(ObjectiveKind::Cut))
    ->Arg(static_cast<int>(ObjectiveKind::MinMaxCut));

void BM_FromAssignmentRebuild(benchmark::State& state) {
  const auto g = make_grid2d(50, 50);
  Rng rng(11);
  std::vector<int> assign(static_cast<std::size_t>(g.num_vertices()));
  for (auto& a : assign) a = static_cast<int>(rng.below(16));
  for (auto _ : state) {
    auto p = Partition::from_assignment(g, assign, 16);
    benchmark::DoNotOptimize(p.edge_cut());
  }
}
BENCHMARK(BM_FromAssignmentRebuild);

void BM_Connections(benchmark::State& state) {
  const auto g = make_random_geometric(2000, 0.04, 3);
  const auto p = random_partition(g, 32, 5);
  PartMarkScratch conns;
  int q = 0;
  for (auto _ : state) {
    p.connections(p.nonempty_parts()[static_cast<std::size_t>(q)], conns);
    q = (q + 1) % p.num_nonempty_parts();
    benchmark::DoNotOptimize(conns.marked().size());
  }
}
BENCHMARK(BM_Connections);

}  // namespace
