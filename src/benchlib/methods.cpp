#include "benchlib/methods.hpp"

#include "ffp/api.hpp"
#include "solver/registry.hpp"
#include "util/check.hpp"

namespace ffp {

namespace {

/// Row label → registry spec, in the paper's order. The single source of
/// truth for how each Table-1 row is configured.
const std::vector<std::pair<std::string, std::string>>& table1_specs() {
  static const std::vector<std::pair<std::string, std::string>> rows = {
      {"Linear (Bi)", "linear:arity=2"},
      {"Linear (Bi, KL)", "linear:arity=2,kl=true"},
      {"Linear (Oct, KL)", "linear:arity=8,kl=true"},
      {"Spectral (Lanc, Bi)", "spectral:engine=lanczos,arity=bi"},
      {"Spectral (Lanc, Bi, KL)", "spectral:engine=lanczos,arity=bi,kl=true"},
      {"Spectral (Lanc, Oct)", "spectral:engine=lanczos,arity=oct"},
      {"Spectral (Lanc, Oct, KL)", "spectral:engine=lanczos,arity=oct,kl=true"},
      {"Spectral (RQI, Bi)", "spectral:engine=rqi,arity=bi"},
      {"Spectral (RQI, Bi, KL)", "spectral:engine=rqi,arity=bi,kl=true"},
      {"Spectral (RQI, Oct)", "spectral:engine=rqi,arity=oct"},
      {"Spectral (RQI, Oct, KL)", "spectral:engine=rqi,arity=oct,kl=true"},
      {"Multilevel (Bi)", "multilevel:arity=bi"},
      {"Multilevel (Oct)", "multilevel:arity=oct"},
      {"Percolation", "percolation"},
      {"Simulated annealing", "annealing"},
      {"Ant colony", "ant_colony"},
      {"Fusion Fission", "fusion_fission"},
  };
  return rows;
}

}  // namespace

Partition MethodSpec::run(const Graph& g, api::SolveSpec spec,
                          AnytimeRecorder* recorder) const {
  // Every Table-1 row is one facade solve: the benches exercise the exact
  // pipeline the CLI and the daemon serve.
  spec.method = solver_spec;
  api::ImprovementFn stream;
  if (recorder != nullptr) {
    recorder->start();
    stream = [recorder](double, double value) { recorder->record(value); };
  }
  return api::Engine::shared()
      .solve(api::Problem::viewing(g), spec, std::move(stream))
      .best;
}

std::vector<MethodSpec> table1_methods() {
  std::vector<MethodSpec> methods;
  methods.reserve(table1_specs().size());
  for (const auto& [name, spec] : table1_specs()) {
    methods.push_back({name, spec, make_solver(spec)->is_metaheuristic()});
  }
  return methods;
}

const MethodSpec& method_by_name(const std::vector<MethodSpec>& methods,
                                 const std::string& name) {
  for (const auto& m : methods) {
    if (m.name == name) return m;
  }
  throw Error("unknown method: " + name);
}

std::string table1_spec(const std::string& name) {
  for (const auto& [label, spec] : table1_specs()) {
    if (label == name) return spec;
  }
  throw Error("unknown method: " + name);
}

}  // namespace ffp
