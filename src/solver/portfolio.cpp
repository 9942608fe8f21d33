#include "solver/portfolio.hpp"

#include <mutex>
#include <optional>
#include <thread>

#include "service/thread_budget.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ffp {

namespace {

/// Thread-safe monotone merge of improvement events from concurrent
/// restarts into one master recorder. start() is a no-op because the
/// runner arms the master exactly once, before any restart begins.
class SharedAnytimeRecorder final : public AnytimeRecorder {
 public:
  explicit SharedAnytimeRecorder(AnytimeRecorder* master) : master_(master) {}

  void start() override {}

  void record(double best_value) override {
    std::lock_guard lock(mu_);
    if (!has_best_ || best_value < best_) {
      has_best_ = true;
      best_ = best_value;
      master_->record(best_value);
    }
  }

 private:
  AnytimeRecorder* master_;
  std::mutex mu_;
  bool has_best_ = false;
  double best_ = 0.0;
};

}  // namespace

PortfolioRunner::PortfolioRunner(SolverPtr solver, PortfolioOptions options)
    : solver_(std::move(solver)), options_(std::move(options)) {
  FFP_CHECK(solver_ != nullptr, "portfolio solver must not be null");
  FFP_CHECK(options_.restarts >= 1, "portfolio needs at least one restart");
}

std::vector<std::uint64_t> PortfolioRunner::seed_stream(std::uint64_t seed,
                                                        int n) {
  FFP_CHECK(n >= 0, "seed stream length must be >= 0");
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(n));
  std::uint64_t state = seed;
  for (auto& s : seeds) s = splitmix64(state);
  return seeds;
}

SolverResult PortfolioRunner::run(const Graph& g,
                                  const SolverRequest& request) const {
  const int restarts = options_.restarts;
  const auto seeds = seed_stream(request.seed, restarts);

  std::optional<SharedAnytimeRecorder> shared;
  if (request.recorder != nullptr) {
    request.recorder->start();
    shared.emplace(request.recorder);
  }

  WallTimer timer;
  std::vector<std::optional<SolverResult>> results(
      static_cast<std::size_t>(restarts));
  unsigned pool_size = 0;
  {
    // More workers than restarts would only idle; cap the want. Under a
    // budget every restart worker holds a leased slot — the calling
    // thread only blocks, so it is not counted. A fully contended 0 grant
    // falls back to one unleased worker: the entry thread's own
    // concurrency.
    unsigned want = options_.threads == 0
                        ? std::max(1u, std::thread::hardware_concurrency())
                        : options_.threads;
    want = std::min(want, static_cast<unsigned>(restarts));
    WorkerLease lease;
    if (options_.budget != nullptr) {
      lease = options_.budget->lease(want);
      want = std::max(1u, lease.granted());
    }
    ThreadPool pool(want);
    pool_size = pool.size();
    parallel_for(pool, restarts, [&](std::int64_t i) {
      const auto idx = static_cast<std::size_t>(i);
      SolverRequest local = request;
      local.seed = seeds[idx];
      local.recorder = shared.has_value() ? &*shared : nullptr;
      if (options_.seed_restart) {
        options_.seed_restart(static_cast<int>(i), local);
      }
      results[idx].emplace(solver_->run(g, local));
    });
  }

  if (options_.on_result) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      options_.on_result(static_cast<int>(i), *results[i]);
    }
  }

  // Winner: lowest value, ties broken by lowest restart index — an order
  // that depends only on the results, never on completion order.
  std::size_t winner = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i]->best_value < results[winner]->best_value) winner = i;
  }

  SolverResult out = std::move(*results[winner]);
  out.seconds = timer.elapsed_seconds();
  out.stats.emplace_back("restarts", static_cast<double>(restarts));
  out.stats.emplace_back("threads", static_cast<double>(pool_size));
  out.stats.emplace_back("winner_restart", static_cast<double>(winner));
  return out;
}

}  // namespace ffp
