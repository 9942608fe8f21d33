#include "service/service.hpp"

#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "util/strings.hpp"
#include "util/timer.hpp"

namespace ffp {

namespace {

api::EngineOptions engine_options(const ServiceOptions& options) {
  api::EngineOptions out;
  out.runners = options.runners;
  out.budget = options.budget;
  out.cache_capacity = options.cache_capacity;
  out.max_queued = options.max_queued;
  out.state_dir = options.state_dir;
  out.evolve_capacity = options.evolve_capacity;
  return out;
}

}  // namespace

ServiceHost::ServiceHost(ServiceOptions options)
    : options_(std::move(options)), engine_(engine_options(options_)) {}

api::Problem ServiceHost::load_problem(const Request& request) {
  if (request.inline_graph != nullptr) {
    return api::Problem::from_shared(request.inline_graph);
  }
  if (!options_.allow_files) {
    throw Error("graph_file submissions are disabled on this server "
                "(inline 'graph' only)");
  }
  {
    std::lock_guard lock(mu_);
    const auto it = graph_cache_.find(request.graph_file);
    if (it != graph_cache_.end()) {
      if (auto cached = it->second.graph.lock()) {
        return api::Problem::from_shared_with_digest(
            std::move(cached), it->second.digest,
            "file:" + request.graph_file);
      }
    }
  }
  // Parse (and digest) outside mu_ — a big (or slow) file must not stall
  // concurrent sessions resolving other paths. A concurrent submit of the
  // same path may parse twice; last one in wins the cache slot, both
  // graphs are equal, and the losers die with their jobs.
  auto graph = std::make_shared<const Graph>(
      read_chaco_file(request.graph_file, options_.limits.graph));
  const std::uint64_t digest = api::graph_digest(*graph);
  std::lock_guard lock(mu_);
  // Insert only after a successful read (a failing path must not leave a
  // node behind), and sweep expired entries so a long-running daemon fed
  // many distinct paths cannot grow the cache without bound.
  for (auto it = graph_cache_.begin(); it != graph_cache_.end();) {
    it = it->second.graph.expired() ? graph_cache_.erase(it) : std::next(it);
  }
  graph_cache_[request.graph_file] = {graph, digest};
  return api::Problem::from_shared_with_digest(std::move(graph), digest,
                                               "file:" + request.graph_file);
}

ServiceSession::ServiceSession(ServiceHost& host, Emit emit,
                               SessionPolicy policy)
    : host_(host),
      policy_(policy),
      emit_(std::make_shared<EmitState>()),
      waits_(policy.async_results ? std::make_shared<AsyncWaits>() : nullptr) {
  emit_->sink = std::move(emit);
}

ServiceSession::~ServiceSession() {
  // Abnormal teardown (connection dropped): stop burning runners on jobs
  // nobody will read, then wait — bounded by the policy deadline — so a
  // job that ignores its cancel flag cannot hold the transport thread
  // hostage forever.
  const std::vector<api::SolveHandle> jobs = handles();
  for (const auto& handle : jobs) handle.cancel();

  std::size_t abandoned = 0;
  const WallTimer timer;
  for (const auto& handle : jobs) {
    if (policy_.teardown_wait_ms < 0) continue;  // no-wait transports
    if (policy_.teardown_wait_ms == 0) {
      handle.wait();
      continue;
    }
    const double remaining =
        policy_.teardown_wait_ms - timer.elapsed_millis();
    if (remaining <= 0 || !handle.wait_for(remaining).has_value()) {
      ++abandoned;
    }
  }
  if (abandoned > 0) {
    std::fprintf(stderr,
                 "ffp service: abandoning %zu unfinished job(s) after "
                 "%.0f ms teardown wait (cancelled; the scheduler will "
                 "finish them)\n",
                 abandoned, policy_.teardown_wait_ms);
  }
  // Closures owned by abandoned jobs outlive us; kill their sink access
  // before the transport underneath it goes away.
  std::lock_guard lock(emit_->mu);
  emit_->alive = false;
  emit_->sink = nullptr;
}

void ServiceSession::emit_to(const std::shared_ptr<EmitState>& state,
                             const std::string& line) {
  std::lock_guard lock(state->mu);
  if (!state->alive) return;  // session torn down; drop the event
  state->sink(line);
}

ServiceSession::SessionJob ServiceSession::lookup(const std::string& id) {
  std::lock_guard lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw ServiceError(ErrCode::UnknownJob, "unknown job id '" + id + "'");
  }
  return it->second;
}

std::vector<api::SolveHandle> ServiceSession::handles() {
  std::lock_guard lock(mu_);
  std::vector<api::SolveHandle> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job.handle);
  return out;
}

bool ServiceSession::handle_line(std::string_view line) {
  if (trim(line).empty()) return true;  // blank lines are keep-alives
  std::string id;
  try {
    Request request = parse_request(line, host_.options().limits);
    id = request.id;
    switch (request.op) {
      case RequestOp::Submit: {
        {
          std::lock_guard lock(mu_);
          if (jobs_.count(request.id) > 0) {
            throw Error("duplicate job id '" + request.id + "'");
          }
        }
        const api::Problem problem = host_.load_problem(request);
        api::ImprovementFn stream;
        if (host_.options().stream_progress) {
          // The closure shares the emit state, not the session: it owns
          // its client id and survives a torn-down session (the alive
          // flag drops its events), so a dead transport can never fail
          // the job it reports on.
          stream = [state = emit_,
                    client = request.id](double seconds, double value) {
            try {
              emit_to(state, format_progress(client, seconds, value));
            } catch (const std::exception&) {
              // Peer gone mid-stream; the result op will surface it.
            }
          };
        }
        api::TerminalFn done;
        if (policy_.async_results) {
          // Fires once per job, after it reads terminal. Emits only if a
          // result op has registered interest (the claim set) — otherwise
          // the terminal status stays queryable and a later result op
          // delivers it synchronously via poll().
          done = [waits = waits_, state = emit_,
                  client = request.id](const JobStatus& status) {
            {
              std::lock_guard lock(waits->mu);
              if (waits->wanted.count(client) == 0) return;
            }
            const std::string line = format_terminal(client, status);
            // Claim and emit under one lock: the reply is queued before
            // owes_reply() turns false, so the transport never takes the
            // client's next line ahead of it.
            std::lock_guard lock(waits->mu);
            if (waits->wanted.erase(client) == 0) return;
            try {
              emit_to(state, line);
            } catch (const std::exception&) {
              // Peer gone; the claim is consumed either way.
            }
          };
        }
        api::SolveHandle handle = host_.engine().submit(
            problem, request.spec, std::move(stream), std::move(done));
        {
          std::lock_guard lock(mu_);
          jobs_.emplace(request.id,
                        SessionJob{std::move(handle),
                                   {problem.digest(), request.spec.k,
                                    request.spec.objective}});
        }
        emit(format_ack(request.id));
        return true;
      }
      case RequestOp::Status: {
        const SessionJob job = lookup(id);
        const JobStatus status = job.handle.poll();
        const bool cache_on = host_.options().cache_capacity > 0;
        const api::CacheCounters counters =
            cache_on ? host_.engine().cache_counters() : api::CacheCounters{};
        const bool archive_on = host_.options().evolve_capacity > 0;
        const evolve::ArchiveCounters archive =
            archive_on ? host_.engine().archive_counters()
                       : evolve::ArchiveCounters{};
        const std::optional<double> best =
            archive_on ? host_.engine().archive_best(job.population.digest,
                                                     job.population.k,
                                                     job.population.objective)
                       : std::nullopt;
        const ServeCounters serve = host_.serve_stats().snapshot();
        emit(format_status(id, status, cache_on ? &counters : nullptr,
                           archive_on ? &archive : nullptr,
                           best.has_value() ? &*best : nullptr, &serve));
        return true;
      }
      case RequestOp::Cancel:
        if (!lookup(id).handle.cancel()) {
          throw Error("job '" + id + "' is already terminal");
        }
        emit(format_ack(id));
        return true;
      case RequestOp::Result: {
        const api::SolveHandle handle = lookup(id).handle;
        if (!policy_.async_results) {
          emit(format_terminal(id, handle.wait()));
          return true;
        }
        // Async mode: register interest FIRST, then poll. Already
        // terminal -> reclaim the interest and answer inline (the
        // terminal callback, if it raced us here, consumed the claim and
        // emitted — then our erase finds nothing and we stay silent).
        // Still running -> the callback owns delivery.
        {
          std::lock_guard lock(waits_->mu);
          waits_->wanted.insert(id);
        }
        const JobStatus status = handle.poll();
        if (is_terminal(status.state)) {
          bool claimed = false;
          {
            std::lock_guard lock(waits_->mu);
            claimed = waits_->wanted.erase(id) > 0;
          }
          if (claimed) emit(format_terminal(id, status));
        }
        return true;
      }
      case RequestOp::MigrateElite: {
        if (host_.options().evolve_capacity == 0) {
          throw ServiceError(ErrCode::Forbidden,
                             "the elite archive is disabled on this server "
                             "(--evolve-elites 0)");
        }
        // Foreign partitions go through the same diversity-aware admission
        // as local results; a wrong-size assignment is harmless (the
        // evolve planner skips elites that do not match its graph).
        const bool admitted = host_.engine().archive_admit(
            request.digest, request.spec.k, request.spec.objective,
            *request.migrate_assignment, request.migrate_value);
        host_.serve_stats().migrations_received.fetch_add(
            1, std::memory_order_relaxed);
        emit(format_migrate(admitted));
        return true;
      }
      case RequestOp::Shutdown:
        if (!policy_.allow_shutdown) {
          throw ServiceError(
              ErrCode::Forbidden,
              "shutdown is not allowed on this connection (start the "
              "server with --allow-remote-shutdown)");
        }
        host_.engine().scheduler().shutdown();
        emit(format_bye());
        return false;
    }
  } catch (const ServiceError& e) {
    // Already classified (shed, expired, forbidden, ...): forward the code
    // and any retry-after hint to the client verbatim.
    emit(format_error(id, e.what(), e.code(), e.retry_after_ms()));
  } catch (const Error& e) {
    // ffp::Error out of parsing/validation/loading: the request was bad.
    emit(format_error(id, e.what(), ErrCode::BadRequest));
  } catch (const std::exception& e) {
    emit(format_error(id, e.what(), ErrCode::Internal));
  }
  return true;
}

void ServiceSession::drain() {
  for (const auto& handle : handles()) handle.wait();
}

bool ServiceSession::owes_reply() {
  if (waits_ == nullptr) return false;
  std::lock_guard lock(waits_->mu);
  return !waits_->wanted.empty();
}

std::size_t ServiceSession::pending_work() {
  std::size_t open = 0;
  if (waits_ != nullptr) {
    std::lock_guard lock(waits_->mu);
    open += waits_->wanted.size();
  }
  for (const auto& handle : handles()) {
    if (!is_terminal(handle.poll().state)) ++open;
  }
  return open;
}

}  // namespace ffp
