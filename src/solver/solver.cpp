#include "solver/solver.hpp"

namespace ffp {

double SolverResult::stat(std::string_view name, double fallback) const {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return fallback;
}

std::shared_ptr<const SolverResult> share_result(
    SolverResult result, std::shared_ptr<const Graph> graph) {
  FFP_CHECK(graph != nullptr && &result.best.graph() == graph.get(),
            "share_result: the result must partition the given graph");
  struct Owned {
    std::shared_ptr<const Graph> graph;
    SolverResult result;
  };
  auto owned = std::make_shared<const Owned>(
      Owned{std::move(graph), std::move(result)});
  // Aliasing: the handle points at the result and owns the pair.
  return {owned, &owned->result};
}

}  // namespace ffp
