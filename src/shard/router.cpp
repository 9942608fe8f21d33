#include "shard/router.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/problem.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/strings.hpp"

namespace ffp::shard {

std::uint64_t route_digest(const Request& request) {
  // A graph_file submit hashes the path string: the router never opens
  // graph files, and the content digest is computed (and cached) on the
  // shard the path always routes to.
  return request.inline_graph != nullptr
             ? api::graph_digest(*request.inline_graph)
             : fnv1a(request.graph_file, kFnvBasisShort);
}

/// One client connection's routing state: its shard links and where each
/// job id went, plus the one op in flight. Lives on the loop thread.
class Router::Relay final : public LineHandler {
 public:
  Relay(Router& router, EventLoopServer::Emit emit)
      : router_(router), emit_(std::move(emit)) {}
  ~Relay() override {
    for (const auto& [shard, link] : links_) {
      (void)shard;
      link.close();
    }
  }

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  bool handle_line(std::string_view raw) override;
  bool owes_reply() override { return op_.has_value(); }

  bool in_flight_on(std::size_t shard) const {
    return op_.has_value() && op_->shard == shard;
  }
  void on_shard_line(std::size_t shard, std::string_view line);
  void on_shard_closed(std::size_t shard, std::string_view why);

 private:
  /// The op in flight: its raw line (re-sent on failover), the shards it
  /// may go to, and where it is now.
  struct Op {
    Op(std::string_view raw, std::string job, bool is_submit,
       std::vector<std::size_t> to)
        : line(raw), id(std::move(job)), submit(is_submit),
          shards(std::move(to)) {}
    std::string line;
    std::string id;
    bool submit;
    std::vector<std::size_t> shards;  ///< submit: ring preference order
    std::size_t tried = 0;            ///< attempts started
    std::size_t shard = 0;
    std::string why;  ///< the last shard failure
  };

  void forward();
  void finish(std::string_view reply);
  void close_link(std::size_t shard);

  Router& router_;
  EventLoopServer::Emit emit_;
  std::map<std::size_t, EventLoopServer::Link> links_;
  std::map<std::string, std::size_t> routed_;  ///< job id -> shard
  std::optional<Op> op_;
};

/// A shard link's handler: everything goes to the relay that dialed it.
class Router::ShardLink final : public LineHandler {
 public:
  ShardLink(Relay& relay, std::size_t shard) : relay_(relay), shard_(shard) {}

  bool handle_line(std::string_view line) override {
    relay_.on_shard_line(shard_, line);
    return true;
  }
  bool owes_reply() override { return relay_.in_flight_on(shard_); }
  void on_close(std::string_view why) override {
    relay_.on_shard_closed(shard_, why);
  }

 private:
  Relay& relay_;  ///< outlives this: the relay closes its links first
  std::size_t shard_;
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shard_ports.size(), options_.vnodes),
      down_until_ms_(options_.shard_ports.size(), 0.0),
      loop_(stats_, options_.loop, [this](EventLoopServer::Emit emit) {
        return std::make_unique<Relay>(*this, std::move(emit));
      }) {
  FFP_CHECK(!options_.shard_ports.empty(),
            "Router needs at least one shard port");
}

Router::~Router() = default;

bool Router::shard_up(std::size_t s) const {
  return down_until_ms_[s] <= clock_.elapsed_millis();
}

void Router::mark_down(std::size_t s) {
  down_until_ms_[s] = clock_.elapsed_millis() + options_.down_cooldown_ms;
  std::fprintf(stderr,
               "ffp_router: shard %zu (port %d) marked down for %.0f ms\n", s,
               options_.shard_ports[s], options_.down_cooldown_ms);
}

bool Router::Relay::handle_line(std::string_view raw) {
  if (trim(raw).empty()) return true;  // keep-alive
  std::string id;
  try {
    // Full validation up front: a malformed request dies HERE with a
    // structured error and never costs a shard round trip.
    const Request request = parse_request(raw, router_.options_.limits);
    id = request.id;
    switch (request.op) {
      case RequestOp::Submit: {
        op_.emplace(raw, id, true,
                    router_.ring_.preference(route_digest(request)));
        forward();
        return true;
      }
      case RequestOp::Status:
      case RequestOp::Cancel:
      case RequestOp::Result: {
        const auto it = routed_.find(id);
        if (it == routed_.end()) {
          throw ServiceError(ErrCode::UnknownJob,
                             "unknown job id '" + id +
                                 "' (not routed on this connection)");
        }
        op_.emplace(raw, id, false, std::vector<std::size_t>{it->second});
        forward();
        return true;
      }
      case RequestOp::MigrateElite:
        throw Error(
            "migrate_elite is shard-to-shard gossip; the router does not "
            "accept it");
      case RequestOp::Shutdown:
        if (!router_.options_.allow_shutdown) {
          throw ServiceError(
              ErrCode::Forbidden,
              "shutdown is not allowed through the router (start it with "
              "--allow-remote-shutdown)");
        }
        // Router-local: the fleet stays up; stopping shards is an
        // operator action on the shards themselves.
        emit_(format_bye());
        return false;
    }
  } catch (const ServiceError& e) {
    emit_(format_error(id, e.what(), e.code(), e.retry_after_ms()));
  } catch (const Error& e) {
    emit_(format_error(id, e.what(), ErrCode::BadRequest));
  } catch (const std::exception& e) {
    emit_(format_error(id, e.what(), ErrCode::Internal));
  }
  return true;
}

/// Sends the op to its next shard. A submit tries live shards in ring
/// order, then — when all of those failed — every shard again (probing a
/// cooling shard beats refusing); any other op has only its job's shard.
/// With nothing left to try, the client gets a retryable error.
void Router::Relay::forward() {
  Op& op = *op_;
  const std::size_t n = op.shards.size();
  while (op.tried < (op.submit ? 2 * n : 1)) {
    const std::size_t pos = op.tried++;
    const std::size_t s = op.shards[pos % n];
    if (op.submit && pos < n && !router_.shard_up(s)) continue;
    op.shard = s;
    auto it = links_.find(s);
    if (it == links_.end()) {
      try {
        // tcp_connect to a dead loopback port fails immediately
        // (ECONNREFUSED) — that is the router's health probe.
        it = links_
                 .emplace(s, router_.loop_.dial(
                                 router_.options_.shard_ports[s],
                                 router_.options_.backend_io_timeout_ms,
                                 std::make_unique<ShardLink>(*this, s)))
                 .first;
      } catch (const Error& e) {
        router_.mark_down(s);
        op.why = e.what();
        continue;
      }
    }
    it->second.send(op.line);
    return;
  }
  const double retry_ms = router_.options_.down_cooldown_ms;
  if (op.submit) {
    finish(format_error(op.id,
                        "no shard is reachable for this graph; retry after "
                        "backoff",
                        ErrCode::ShuttingDown, retry_ms));
  } else {
    // The shard died with this client's job on it: its retry loop
    // resubmits, and the ring routes around the corpse.
    finish(format_error(op.id,
                        "shard " + std::to_string(op.shard) +
                            " unavailable (" + op.why +
                            "); resubmit to fail over",
                        ErrCode::ShuttingDown, retry_ms));
  }
}

/// Settles the op with its answer to the client; the emit also wakes the
/// loop to take the client's next line.
void Router::Relay::finish(std::string_view reply) {
  op_.reset();
  emit_(reply);
}

void Router::Relay::close_link(std::size_t shard) {
  const auto it = links_.find(shard);
  if (it == links_.end()) return;
  it->second.close();
  links_.erase(it);
}

void Router::Relay::on_shard_line(std::size_t shard, std::string_view line) {
  EventHead head;
  try {
    head = read_event_head(line);
  } catch (const Error&) {
    // Not the protocol: treat the shard as failed.
    close_link(shard);
    on_shard_closed(shard, "unparseable response line");
    return;
  }
  const bool conn_error = head.event == "error" && head.id.empty();
  if (!in_flight_on(shard)) {
    // Nothing in flight here: a connection-level error is the shard
    // reaping an idle link (or draining) — close it quietly, the next op
    // redials. Anything else (a progress event that outlived its op)
    // relays.
    if (conn_error) {
      close_link(shard);
    } else {
      emit_(line);
    }
    return;
  }
  // Verbatim relay: whatever the shard said, the client hears — the
  // router adds routing, never rewrites answers.
  if (head.event == "progress" || (head.id != op_->id && !conn_error &&
                                   head.event != "bye")) {
    emit_(line);
    return;
  }
  // The op settled: its own answer, the shard's goodbye, or a
  // connection-level rejection (shed, drain) that ends this conversation
  // and leaves the retry to the client.
  if (conn_error) close_link(shard);
  if (op_->submit) {
    routed_[op_->id] = shard;
    router_.mark_up(shard);
  }
  finish(line);
}

void Router::Relay::on_shard_closed(std::size_t shard, std::string_view why) {
  links_.erase(shard);
  if (!in_flight_on(shard)) return;  // an idle link: the next op redials
  router_.mark_down(shard);
  op_->why = why;
  forward();
}

}  // namespace ffp::shard
