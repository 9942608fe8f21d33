#include "solver/portfolio.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "service/thread_budget.hpp"
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
  std::vector<std::exception_ptr> errors(results.size());
  // Every thread takes restart indices from one counter; restart i writes
  // only slot i, so where it ran cannot change the bytes.
  std::atomic<int> next{0};
  const auto run_restarts = [&] {
    for (int i = next++; i < restarts; i = next++) {
      const auto idx = static_cast<std::size_t>(i);
      try {
        SolverRequest local = request;
        local.seed = seeds[idx];
        local.recorder = shared.has_value() ? &*shared : nullptr;
        if (options_.seed_restart) options_.seed_restart(i, local);
        results[idx].emplace(solver_->run(g, local));
      } catch (...) {
        errors[idx] = std::current_exception();
      }
    }
  };
  unsigned threads = 1;
  {
    // The calling thread runs restarts, so it leases only restarts − 1
    // workers. Under the scheduler the caller is a runner already covered
    // by its own slot, so live restart threads never exceed the budget. A
    // 0 grant runs every restart here. The lease is declared first so the
    // workers join before their slots go back.
    ThreadBudget& budget = options_.budget != nullptr
                               ? *options_.budget
                               : ThreadBudget::process();
    const WorkerLease lease =
        budget.lease(static_cast<unsigned>(restarts - 1));
    std::vector<std::jthread> workers;
    workers.reserve(lease.granted());
    for (unsigned w = 0; w < lease.granted(); ++w) {
      workers.emplace_back(run_restarts);
    }
    threads += lease.granted();
    run_restarts();
  }

  // The lowest-index failure, not the first to happen: which restart fails
  // first depends on scheduling.
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
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
  out.stats.emplace_back("threads", static_cast<double>(threads));
  out.stats.emplace_back("winner_restart", static_cast<double>(winner));
  return out;
}

}  // namespace ffp
