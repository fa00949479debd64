#include "route/router.hh"

#include <algorithm>
#include <utility>

#include "fault/fault.hh"
#include "serve/client.hh"
#include "util/logging.hh"

namespace ramp {
namespace route {

using serve::Request;
using serve::RequestType;
using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(opts_.backends.size(), opts_.vnodes),
      health_(opts_.backends.size(), opts_.fail_threshold),
      attempts_(std::make_unique<std::atomic<std::uint64_t>[]>(
          opts_.backends.size())),
      host_(serve::HostOptions{opts_.port, opts_.max_frame_bytes,
                               opts_.idle_timeout_ms,
                               opts_.io_timeout_ms},
            serve::HostTallies{connections_, requests_,
                               bad_requests_},
            [this] {
                // The backend links live in the handler, so each
                // reader thread owns its own.
                return [this, links = std::make_shared<BackendLinks>()](
                           const std::shared_ptr<
                               serve::ConnectionHost::Connection> &conn,
                           Request req, const std::string &payload,
                           std::uint64_t) {
                    host_.write(*conn,
                                handleRequest(req, payload, *links));
                };
            })
{
}

Router::~Router()
{
    stop();
}

Result<void>
Router::start()
{
    if (opts_.backends.empty())
        return RampError{ErrorCode::InvalidInput,
                         "router needs at least one backend"};
    return host_.start([this] { probeLoop(); });
}

std::string
Router::handleRequest(const Request &req, const std::string &payload,
                      BackendLinks &links)
{
    switch (req.type) {
      case RequestType::Stats: {
        // The router answers stats itself: callers asking the tier
        // for its state want routing health, not one shard's queue.
        return serve::encodeResultReply(req.id, statsJson(),
                                        req.version);
      }
      case RequestType::Hello:
        return serve::encodeHelloReply(req);
      case RequestType::Shutdown: {
        requestDrain();
        JsonValue result = JsonValue::makeObject();
        result.set("draining", JsonValue::makeBool(true));
        return serve::encodeResultReply(req.id, std::move(result),
                                        req.version);
      }
      case RequestType::CacheAppend: {
        bad_requests_.add();
        return serve::encodeErrorReply(
            req.id, serve::err_bad_request,
            "cache_append is the backends' replication verb; the "
            "router does not accept it from clients",
            req.version);
      }
      case RequestType::Evaluate:
      case RequestType::SelectDrm:
      case RequestType::SelectDtm:
      case RequestType::SelectChip:
      case RequestType::ReportUsage:
      case RequestType::RemainingLifetime:
        break;
    }

    if (draining())
        return serve::encodeErrorReply(req.id,
                                       serve::err_shutting_down,
                                       "router is draining",
                                       req.version);
    return forward(req, payload, links);
}

std::string
Router::routeKey(const Request &req)
{
    switch (req.type) {
    case RequestType::ReportUsage:
    case RequestType::RemainingLifetime:
        return util::cat("chip|", req.chip);
    case RequestType::Evaluate:
        return util::cat("pt|", req.app, "|",
                         static_cast<int>(req.space), "|",
                         req.config);
    case RequestType::SelectChip: {
        // Key on the whole app mix so identical chips stick to one
        // backend's explored-space memos.
        std::string mix;
        for (const auto &app : req.core_apps)
            mix += app + ",";
        return util::cat("chip-sel|", mix,
                         static_cast<int>(req.space));
    }
    default:
        return util::cat("sel|", req.app, "|",
                         static_cast<int>(req.space));
    }
}

std::string
Router::forward(const Request &req, const std::string &payload,
                BackendLinks &links)
{
    const std::string key = routeKey(req);
    const std::uint64_t op = HashRing::hashKey(key);
    const std::size_t n = opts_.backends.size();
    std::vector<char> tried(n, 0);
    std::size_t prev = n; // No previous attempt yet.

    for (int attempt = 0; attempt < opts_.retry.attempts();
         ++attempt) {
        if (attempt > 0) {
            retries_.add();
            host_.sleepFor(opts_.retry.delayMs(op, attempt));
            if (draining())
                return serve::encodeErrorReply(
                    req.id, serve::err_shutting_down,
                    "router is draining", req.version);
        }
        auto pick = ring_.pick(key, [&](std::size_t b) {
            return health_.usable(b) && !tried[b];
        });
        if (!pick) {
            // Every usable backend was already tried this request:
            // widen to re-tries (a Suspect backend may have
            // recovered between attempts).
            std::fill(tried.begin(), tried.end(), 0);
            pick = ring_.pick(key, [&](std::size_t b) {
                return health_.usable(b);
            });
        }
        if (!pick)
            break; // Every backend is Down.
        const std::size_t b = *pick;
        tried[b] = 1;
        if (prev != n && b != prev) {
            failovers_.add();
        }
        prev = b;

        auto fwd = forwardOnce(links, b, payload);
        if (fwd) {
            health_.observeSuccess(b);
            forwarded_.add();
            return std::move(fwd.value());
        }
        // Passive health evidence: the probe thread would take a
        // full interval to notice what forwarding just did.
        health_.observeFailure(b);
        links.erase(b);
    }

    no_backend_.add();
    return serve::encodeErrorReply(
        req.id, serve::err_no_backend,
        util::cat("no healthy backend for shard key '", key,
                  "' after ", opts_.retry.attempts(), " attempts"),
        req.version);
}

Result<std::string>
Router::forwardOnce(BackendLinks &links, std::size_t b,
                    const std::string &payload)
{
    auto it = links.find(b);
    if (it == links.end()) {
        const std::uint16_t port = opts_.backends[b];
        const std::uint64_t attempt_no =
            attempts_[b].fetch_add(1, std::memory_order_relaxed) + 1;
        if (const fault::FaultPlan *plan = fault::activeFaultPlan();
            plan && fault::refuseConnect(*plan, port, attempt_no))
            return RampError{ErrorCode::Unavailable,
                             util::cat("connect to backend :", port,
                                       " refused (fault plan)")};
        auto sock = util::connectTcp(port, opts_.connect_timeout_ms);
        if (!sock)
            return sock.error();
        it = links.emplace(b, std::move(sock.value())).first;
    }
    auto written =
        util::writeFrame(it->second, payload, opts_.max_frame_bytes,
                         opts_.io_timeout_ms);
    if (!written)
        return written.error();
    auto frame = util::readFrame(it->second, opts_.max_frame_bytes,
                                 opts_.io_timeout_ms);
    if (!frame)
        return frame.error();
    if (!frame.value().has_value())
        return RampError{ErrorCode::IoFailure,
                         "backend closed mid-request"};
    return std::move(*frame.value());
}

void
Router::probeLoop()
{
    while (!draining()) {
        for (std::size_t b = 0; b < opts_.backends.size(); ++b) {
            if (draining())
                break;
            probes_.add();
            const std::uint16_t port = opts_.backends[b];
            bool ok = false;
            const std::uint64_t attempt_no =
                attempts_[b].fetch_add(1,
                                       std::memory_order_relaxed) +
                1;
            const fault::FaultPlan *plan = fault::activeFaultPlan();
            if (!(plan &&
                  fault::refuseConnect(*plan, port, attempt_no))) {
                serve::ClientOptions copts;
                copts.port = port;
                copts.connect_timeout_ms = opts_.connect_timeout_ms;
                copts.io_timeout_ms = opts_.io_timeout_ms;
                auto client = serve::Client::connect(copts);
                if (client) {
                    serve::Request stats;
                    stats.type = RequestType::Stats;
                    ok = serve::Client::unwrap(
                             client.value().call(std::move(stats)))
                             .ok();
                }
            }
            if (ok) {
                health_.observeSuccess(b);
            } else {
                probe_failures_.add();
                health_.observeFailure(b);
            }
        }
        host_.sleepFor(opts_.probe_interval_ms);
    }
}

JsonValue
Router::statsJson() const
{
    JsonValue out = JsonValue::makeObject();
    out.set("router", JsonValue::makeBool(true));
    out.set("backends_total",
            JsonValue::makeNumber(
                static_cast<double>(opts_.backends.size())));
    out.set("backends_usable",
            JsonValue::makeNumber(
                static_cast<double>(health_.usableCount())));
    auto num = [](std::uint64_t v) {
        return JsonValue::makeNumber(static_cast<double>(v));
    };
    out.set("connections", num(connections_.value()));
    out.set("requests", num(requests_.value()));
    out.set("forwarded", num(forwarded_.value()));
    out.set("retries", num(retries_.value()));
    out.set("failovers", num(failovers_.value()));
    out.set("no_backend", num(no_backend_.value()));
    out.set("bad_requests", num(bad_requests_.value()));
    out.set("probes", num(probes_.value()));
    out.set("probe_failures", num(probe_failures_.value()));
    out.set("health_up", num(health_.transitionsUp()));
    out.set("health_down", num(health_.transitionsDown()));
    JsonValue backends = health_.toJson();
    for (std::size_t b = 0;
         b < backends.array.size() && b < opts_.backends.size(); ++b)
        backends.array[b].set(
            "port", JsonValue::makeNumber(static_cast<double>(
                        opts_.backends[b])));
    out.set("backends", std::move(backends));
    out.set("draining", JsonValue::makeBool(draining()));
    return out;
}

} // namespace route
} // namespace ramp
