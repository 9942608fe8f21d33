// ffp_gen — generate benchmark graphs in Chaco/METIS format.
//
//   ffp_gen --family grid2d --args 64,64 --out grid.graph
//   ffp_gen --family atc --seed 2006 --out core_area.graph
//
// Families mirror the Walshaw-archive structures the test/bench suites use
// (see graph/generators.hpp), plus the synthetic ATC core area. The output
// feeds straight into the partitioner:
//
//   ffp_gen --family grid2d --args 64,64 --out grid.graph
//   ffp_part --graph grid.graph --k 32 --method fusion_fission
//            --restarts 8 --threads 4
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ffp/api.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

namespace {

/// A flag's comma-separated values, each parsed by `parse`; a bad token
/// fails naming the flag.
template <typename T>
std::vector<T> parse_list(const std::string& flag, const std::string& csv,
                          std::optional<T> (*parse)(std::string_view),
                          const char* expects) {
  std::vector<T> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    auto comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const auto token =
        ffp::trim(std::string_view(csv).substr(start, comma - start));
    if (!token.empty()) {
      const std::optional<T> v = parse(token);
      if (!v.has_value()) {
        throw ffp::Error("--" + flag + " expects " + expects + ", got '" +
                         std::string(token) + "'");
      }
      out.push_back(*v);
    }
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ffp::ArgParser args;
  args.flag("family", "grid2d",
            "grid2d|grid3d|torus|path|cycle|complete|star|barbell|"
            "geometric|powerlaw|random|caterpillar|atc")
      .flag("args", "32,32", "family dimensions, comma separated")
      .flag("seed", "1", "random seed (stochastic families)")
      .flag("weights", "", "randomize edge weights, uniform in [lo, hi): lo,hi")
      .flag("out", "", "output file (stdout if empty)")
      .toggle("help", "show this help");
  try {
    args.parse(argc, argv);
    if (args.get_bool("help")) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    const std::string family = args.get("family");
    const auto dims =
        parse_list<std::int64_t>("args", args.get("args"), ffp::parse_int,
                                 "integers");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    auto dim = [&](std::size_t i, std::int64_t fallback) -> long long {
      return dims.size() > i ? dims[i] : fallback;
    };

    // The CLI's --family/--args/--seed flags assemble an api::Problem
    // generator spec, so ffp_gen and every other graph source in the repo
    // construct instances through the one facade path.
    std::string spec = family + ":";
    if (family == "grid2d") {
      spec += ffp::format("%lld,%lld", dim(0, 32), dim(1, 32));
    } else if (family == "grid3d") {
      spec += ffp::format("%lld,%lld,%lld", dim(0, 10), dim(1, 10),
                          dim(2, 10));
    } else if (family == "torus") {
      spec += ffp::format("%lld,%lld", dim(0, 16), dim(1, 16));
    } else if (family == "path" || family == "cycle") {
      spec += ffp::format("%lld", dim(0, 100));
    } else if (family == "complete") {
      spec += ffp::format("%lld", dim(0, 16));
    } else if (family == "star") {
      spec += ffp::format("%lld", dim(0, 32));
    } else if (family == "barbell") {
      spec += ffp::format("%lld,%lld", dim(0, 10), dim(1, 2));
    } else if (family == "geometric") {
      spec += ffp::format("%lld,%g,%llu", dim(0, 500),
                          dim(1, 0) > 0 ? dim(1, 0) / 1000.0 : 0.06,
                          static_cast<unsigned long long>(seed));
    } else if (family == "powerlaw") {
      spec += ffp::format("%lld,%lld,2.5,%llu", dim(0, 500), dim(1, 6),
                          static_cast<unsigned long long>(seed));
    } else if (family == "random") {
      spec += ffp::format("%lld,%lld,%llu", dim(0, 200), dim(1, 800),
                          static_cast<unsigned long long>(seed));
    } else if (family == "caterpillar") {
      spec += ffp::format("%lld,%lld", dim(0, 30), dim(1, 3));
    } else if (family == "atc") {
      spec += ffp::format("%llu", static_cast<unsigned long long>(seed));
      if (!dims.empty()) spec += ffp::format(",%lld", dim(0, 0));
      if (dims.size() > 1) spec += ffp::format(",%lld", dim(1, 0));
    } else {
      throw ffp::Error("unknown family '" + family + "'");
    }
    const ffp::api::Problem problem = ffp::api::Problem::generated(spec);
    ffp::Graph g = problem.graph();

    const std::string wspec = args.get("weights");
    if (!wspec.empty()) {
      const auto range =
          parse_list<double>("weights", wspec, ffp::parse_double, "numbers");
      if (range.size() != 2 || !(range[0] >= 0.0 && range[1] > range[0])) {
        throw ffp::Error("--weights expects lo,hi with 0 <= lo < hi, got '" +
                         wspec + "'");
      }
      g = ffp::with_random_weights(g, range[0], range[1], seed ^ 0xb5);
    }

    std::fprintf(stderr, "%s\n", g.summary().c_str());
    const std::string out = args.get("out");
    if (out.empty()) {
      ffp::write_chaco(g, std::cout);
    } else {
      ffp::write_chaco_file(g, out);
      std::fprintf(stderr, "written to %s\n", out.c_str());
    }
  } catch (const ffp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
