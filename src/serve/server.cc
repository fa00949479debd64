#include "serve/server.hh"

// ramp-lint: guarded_by(queue_mu_): queue_
// ramp-lint: guarded_by(queue_mu_): executing_

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "fault/fault.hh"
#include "util/logging.hh"

namespace ramp {
namespace serve {

using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

namespace {

/** Seconds between two steady-clock points. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Server::Server(EvaluationService &service, ServerOptions opts)
    : service_(service), opts_(std::move(opts)),
      host_(HostOptions{opts_.port, opts_.max_frame_bytes,
                        opts_.idle_timeout_ms, opts_.io_timeout_ms},
            HostTallies{connections_, requests_, bad_requests_},
            [this] { return std::bind_front(&Server::handle, this); })
{
    if (opts_.queue_depth == 0)
        opts_.queue_depth = 1;
    if (opts_.batch_max == 0)
        opts_.batch_max = 1;
}

Server::~Server() { stop(); }

Result<void>
Server::start()
{
    return host_.start([this] { batchLoop(); });
}

void
Server::requestDrain()
{
    {
        // Under queue_mu_, so admission and the batcher's wait see
        // the flip atomically with the queue.
        std::lock_guard lock(queue_mu_);
        host_.requestDrain();
    }
    queue_cv_.notify_all();
}

void
Server::stop()
{
    requestDrain();
    wait();
}

void
Server::handle(const std::shared_ptr<Connection> &conn, Request req,
               const std::string &payload, std::uint64_t seq)
{
    const std::string fault_key = util::cat(payload, "#", seq);

    switch (req.type) {
      case RequestType::Stats: {
        JsonValue result = JsonValue::makeObject();
        result.set("server", statsJson());
        result.set("cache", service_.cacheStatsJson());
        sendReply(conn, fault_key,
                  encodeResultReply(req.id, std::move(result),
                                    req.version));
        return;
      }
      case RequestType::Shutdown: {
        requestDrain();
        JsonValue result = JsonValue::makeObject();
        result.set("draining", JsonValue::makeBool(true));
        sendReply(conn, fault_key,
                  encodeResultReply(req.id, std::move(result),
                                    req.version));
        return;
      }
      case RequestType::Hello:
        // Capability negotiation never queues.
        hellos_.add();
        sendReply(conn, fault_key, encodeHelloReply(req));
        return;
      case RequestType::ReportUsage:
        // Registry merge touches no evaluation state, so it is
        // answered inline from the reader thread.
        usage_reports_.add();
        sendReply(conn, fault_key,
                  encodeReply(req.id, service_.reportUsage(req),
                              req.version));
        return;
      case RequestType::CacheAppend:
        // Peer replication touches only the cache's own locks, so it
        // is answered inline from the reader thread -- a replication
        // stream never competes with clients for batcher slots.
        cache_appends_.add();
        sendReply(conn, fault_key,
                  encodeReply(req.id, service_.cacheAppend(req),
                              req.version));
        return;
      case RequestType::Evaluate:
      case RequestType::SelectDrm:
      case RequestType::SelectDtm:
      case RequestType::SelectChip:
      case RequestType::RemainingLifetime:
        break;
    }

    // Admission control: the queue is bounded, and full or draining
    // means an immediate structured rejection, never a hang. An idle
    // server (nothing executing, nothing queued) runs the request
    // right here instead, sparing it the hand-off to the batcher.
    // A rejection is built under the lock but sent after it, so a
    // slow peer (or a slow-reply fault) never stalls admission or
    // the hand-off to the next executor.
    std::string rejection;
    {
        std::lock_guard lock(queue_mu_);
        if (draining()) {
            rejection = encodeErrorReply(req.id, err_shutting_down,
                                         "server is draining",
                                         req.version);
        } else if (executing_ || !queue_.empty()) {
            if (queue_.size() < opts_.queue_depth) {
                // No notify: whichever executor finishes next hands
                // the backlog to the batcher (see the end of this
                // function and batchLoop).
                queue_.push_back(Job{conn, std::move(req), fault_key,
                                     std::chrono::steady_clock::now()});
                queue_depth_.set(static_cast<double>(queue_.size()));
                return;
            }
            rejected_.add();
            rejection = encodeErrorReply(
                req.id, err_overloaded,
                util::cat("admission queue is full (depth ",
                          opts_.queue_depth, ")"),
                req.version);
        } else {
            executing_ = true;
        }
    }
    if (!rejection.empty()) {
        sendReply(conn, fault_key, rejection);
        return;
    }

    // The batcher may still be warming the service up; call_once
    // parks this thread until it has.
    service_.ensureReady();
    std::vector<Job> batch;
    batch.push_back(Job{conn, std::move(req), fault_key,
                        std::chrono::steady_clock::now()});
    inline_.add();
    runBatch(batch);
    bool wake_batcher = false;
    {
        std::lock_guard lock(queue_mu_);
        executing_ = false;
        // Backlog that queued behind this run, or a drain that began
        // during it, is the batcher's to take now.
        wake_batcher = !queue_.empty() || draining();
    }
    if (wake_batcher)
        queue_cv_.notify_one();
}

void
Server::batchLoop()
{
    service_.ensureReady();
    std::vector<Job> batch;
    while (true) {
        {
            std::unique_lock lock(queue_mu_);
            if (!batch.empty()) {
                executing_ = false;
                batch.clear();
            }
            // Backlog is taken only once the executor is free, so an
            // inline run in flight keeps a drain waiting too.
            queue_cv_.wait(lock, [&] {
                return !executing_ && (!queue_.empty() || draining());
            });
            if (queue_.empty())
                return; // Draining and fully drained.
            executing_ = true;
            const std::size_t take =
                std::min(opts_.batch_max, queue_.size());
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            queue_depth_.set(static_cast<double>(queue_.size()));
        }
        runBatch(batch);
    }
}

void
Server::runBatch(std::vector<Job> &batch)
{
    const auto batch_t0 = std::chrono::steady_clock::now();

    // Single-flight: evaluate requests naming the same point share
    // one evaluation. Only one batch is ever in flight (one
    // executor), so within-batch coalescing *is* global
    // single-flight.
    using PointKey =
        std::tuple<std::string, drm::AdaptationSpace, std::size_t>;
    std::map<PointKey, std::vector<std::size_t>> point_jobs;
    std::vector<std::size_t> select_jobs;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Request &req = batch[i].req;
        if (req.type == RequestType::Evaluate)
            point_jobs[PointKey{req.app, req.space, req.config}]
                .push_back(i);
        else
            select_jobs.push_back(i);
    }

    std::vector<const PointKey *> unique_points;
    unique_points.reserve(point_jobs.size());
    std::size_t coalesced = 0;
    for (const auto &[key, jobs] : point_jobs) {
        unique_points.push_back(&key);
        coalesced += jobs.size() - 1;
    }
    if (coalesced)
        coalesced_.add(coalesced);

    // Result has no default state; seed the slots with a placeholder
    // the parallel loop always overwrites.
    std::vector<Result<core::OperatingPoint>> points(
        unique_points.size(),
        Result<core::OperatingPoint>(
            RampError{ErrorCode::InvalidInput, "unset"}));
    // Per-item errors land in points[i] as Results; the lambda
    // cannot throw RampException, so the report carries nothing.
    (void)service_.pool().parallelFor(
        unique_points.size(), [&](std::size_t i) {
            const auto &[app, space, config] = *unique_points[i];
            points[i] = service_.evaluatePoint(app, space, config);
        });

    std::map<PointKey, std::size_t> point_index;
    for (std::size_t i = 0; i < unique_points.size(); ++i)
        point_index.emplace(*unique_points[i], i);

    // Counted before the first reply goes out, so a client that has
    // its answer also sees the batch in a stats reply.
    batches_.add();
    batch_size_.add(static_cast<double>(batch.size()));
    for (Job &job : batch) {
        const Request &req = job.req;
        Result<JsonValue> result =
            RampError{ErrorCode::InvalidInput, "unset"};
        if (req.type == RequestType::Evaluate) {
            const auto &point = points[point_index.at(
                PointKey{req.app, req.space, req.config})];
            result = point ? service_.encodeEvaluation(req,
                                                       point.value())
                           : Result<JsonValue>(point.error());
        } else if (req.type == RequestType::RemainingLifetime) {
            result = service_.remainingLifetime(req);
        } else if (req.type == RequestType::SelectChip) {
            result = service_.selectChip(req);
        } else {
            result = service_.select(req);
        }
        sendReply(job.conn, job.fault_key,
                  encodeReply(req.id, std::move(result),
                              req.version));
        request_s_.add(secondsSince(job.admitted));
    }
    batch_s_.add(secondsSince(batch_t0));
}

void
Server::sendReply(const std::shared_ptr<Connection> &conn,
                  std::string_view fault_key,
                  const std::string &payload)
{
    if (const fault::FaultPlan *plan = fault::activeFaultPlan();
        plan && !fault_key.empty()) {
        if (fault::dropConnection(*plan, fault_key)) {
            // Sever instead of replying: the client sees a torn
            // stream, exactly the failure its timeout path handles.
            conn->sock.shutdownBoth();
            return;
        }
        const double delay_ms = fault::slowReplyMs(*plan, fault_key);
        if (delay_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
    }
    host_.write(*conn, payload);
}

JsonValue
Server::statsJson() const
{
    const auto load = [](const telemetry::Tally &c) {
        return JsonValue::makeNumber(static_cast<double>(c.value()));
    };
    std::size_t depth = 0;
    {
        std::lock_guard lock(queue_mu_);
        depth = queue_.size();
    }
    JsonValue out = JsonValue::makeObject();
    out.set("requests", load(requests_));
    out.set("batches", load(batches_));
    out.set("rejected", load(rejected_));
    out.set("bad_requests", load(bad_requests_));
    out.set("coalesced", load(coalesced_));
    out.set("connections", load(connections_));
    out.set("hellos", load(hellos_));
    out.set("usage_reports", load(usage_reports_));
    out.set("cache_appends", load(cache_appends_));
    out.set("queue_depth",
            JsonValue::makeNumber(static_cast<double>(depth)));
    out.set("draining", JsonValue::makeBool(draining()));
    return out;
}

} // namespace serve
} // namespace ramp
