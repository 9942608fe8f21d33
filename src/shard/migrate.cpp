#include "shard/migrate.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "service/net.hpp"
#include "service/protocol.hpp"

namespace ffp::shard {

EliteMigrator::EliteMigrator(api::Engine& engine, ServeStats& stats,
                             MigrateOptions options)
    : engine_(engine), stats_(stats), options_(std::move(options)) {
  FFP_CHECK(options_.period_ms > 0, "EliteMigrator needs period_ms > 0");
  sent_.resize(options_.peer_ports.size());
  if (!options_.peer_ports.empty()) {
    thread_ = std::thread([this] { loop(); });
  }
}

EliteMigrator::~EliteMigrator() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void EliteMigrator::stop() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

void EliteMigrator::loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.period_ms));
    if (stop_) break;
    lock.unlock();
    try {
      migrate_once();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ffp_serve: elite migration error: %s\n",
                   e.what());
    }
    lock.lock();
  }
}

std::size_t EliteMigrator::migrate_once() {
  const auto exports = engine_.archive_exports();
  if (exports.empty()) return 0;
  std::size_t pushed = 0;
  for (std::size_t p = 0; p < options_.peer_ports.size(); ++p) {
    for (const auto& [key, elite] : exports) {
      {
        std::lock_guard lock(mu_);
        const auto it = sent_[p].find(key);
        if (it != sent_[p].end() && elite.value >= it->second) continue;
      }
      if (!send_elite(options_.peer_ports[p], key, elite)) continue;
      ++pushed;
      stats_.migrations_sent.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(mu_);
      sent_[p][key] = elite.value;
    }
  }
  return pushed;
}

bool EliteMigrator::send_elite(int port, const evolve::PopulationKey& key,
                               const evolve::Elite& elite) {
  try {
    const FdHandle conn = tcp_connect(port);
    write_line(conn, format_migrate_elite(key, elite.value, *elite.assignment),
               options_.io_timeout_ms);
    LineReader reader(conn);
    reader.set_timeout_ms(options_.io_timeout_ms);
    std::string line;
    if (!reader.next(line)) return false;
    // Admitted or rejected, the peer answered — both settle this value.
    return read_event_head(line).event == "migrate";
  } catch (const std::exception&) {
    return false;  // peer down / slow: gossip tries again next improvement
  }
}

}  // namespace ffp::shard
