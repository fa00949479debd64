#include "route/router.hh"

#include <algorithm>
#include <chrono>
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

namespace {

std::uint64_t
load(const std::atomic<std::uint64_t> &v)
{
    return v.load(std::memory_order_relaxed);
}

} // namespace

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)),
      ring_(opts_.backends.size(), opts_.vnodes),
      health_(opts_.backends.size(), opts_.fail_threshold),
      attempts_(std::make_unique<std::atomic<std::uint64_t>[]>(
          opts_.backends.size()))
{
    for (std::size_t b = 0; b < opts_.backends.size(); ++b)
        attempts_[b].store(0, std::memory_order_relaxed);
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
    auto listener = util::listenTcp(opts_.port);
    if (!listener)
        return listener.error();
    listener_ = std::move(listener.value());
    port_ = listener_.port;
    started_.store(true, std::memory_order_release);
    acceptor_ = std::thread([this] { acceptLoop(); });
    prober_ = std::thread([this] { probeLoop(); });
    return {};
}

void
Router::requestDrain()
{
    {
        std::lock_guard<std::mutex> lk(stop_mu_);
        draining_.store(true, std::memory_order_release);
    }
    stop_cv_.notify_all();
}

void
Router::wait()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lk(done_mu_);
    if (joined_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    if (prober_.joinable())
        prober_.join();
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> cl(conns_mu_);
        conns.swap(conns_);
    }
    // Half-close every client connection so parked readers wake.
    for (auto &conn : conns)
        conn->sock.shutdownBoth();
    for (auto &conn : conns)
        if (conn->thread.joinable())
            conn->thread.join();
    joined_ = true;
}

void
Router::stop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    requestDrain();
    wait();
}

void
Router::sleepFor(int ms)
{
    if (ms <= 0)
        return;
    std::unique_lock<std::mutex> lk(stop_mu_);
    stop_cv_.wait_for(lk, std::chrono::milliseconds(ms), [this] {
        return draining_.load(std::memory_order_acquire);
    });
}

void
Router::acceptLoop()
{
    while (!draining()) {
        auto accepted = util::acceptTcp(listener_.socket, 200);
        // Reap finished readers so the connection table tracks live
        // peers, not history. Only joined ones: a reader finishing
        // between the two passes would otherwise drop the last
        // reference to its own joinable thread and terminate.
        {
            std::lock_guard<std::mutex> lk(conns_mu_);
            for (auto &conn : conns_) {
                if (conn->done.load(std::memory_order_acquire) &&
                    conn->thread.joinable())
                    conn->thread.join();
            }
            conns_.erase(
                std::remove_if(
                    conns_.begin(), conns_.end(),
                    [](const std::shared_ptr<Connection> &c) {
                        return c->done.load(
                                   std::memory_order_acquire) &&
                               !c->thread.joinable();
                    }),
                conns_.end());
        }
        if (!accepted)
            continue; // Timeout poll or transient accept error.
        connections_.add();
        n_connections_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_shared<Connection>();
        conn->sock = std::move(accepted.value());
        {
            std::lock_guard<std::mutex> lk(conns_mu_);
            conns_.push_back(conn);
        }
        conn->thread =
            std::thread([this, conn] { clientLoop(conn); });
    }
}

void
Router::clientLoop(const std::shared_ptr<Connection> &conn)
{
    BackendLinks links;
    while (!draining()) {
        auto frame = util::readFrame(conn->sock, opts_.max_frame_bytes,
                                     opts_.idle_timeout_ms);
        if (!frame || !frame.value().has_value())
            break; // Idle timeout, torn stream, or clean close.
        const std::string &payload = *frame.value();
        requests_.add();
        n_requests_.fetch_add(1, std::memory_order_relaxed);

        std::string reply;
        auto parsed = serve::parseRequest(payload);
        if (!parsed) {
            bad_requests_.add();
            n_bad_requests_.fetch_add(1, std::memory_order_relaxed);
            reply = serve::encodeErrorReply(
                0, serve::err_bad_request,
                parsed.error().message, 0);
        } else {
            reply = handleRequest(parsed.value(), payload, links);
        }
        if (auto written =
                util::writeFrame(conn->sock, reply,
                                 opts_.max_frame_bytes,
                                 opts_.io_timeout_ms);
            !written)
            break;
    }
    conn->sock.shutdownBoth();
    conn->done.store(true, std::memory_order_release);
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
      case RequestType::Hello: {
        JsonValue result = JsonValue::makeObject();
        result.set("v_min", JsonValue::makeNumber(
                                serve::protocol_version_min));
        result.set("v_max", JsonValue::makeNumber(
                                serve::protocol_version_max));
        result.set("negotiated_v",
                   JsonValue::makeNumber(
                       std::min(req.max_v,
                                serve::protocol_version_max)));
        return serve::encodeResultReply(req.id, std::move(result),
                                        req.version);
      }
      case RequestType::Shutdown: {
        requestDrain();
        JsonValue result = JsonValue::makeObject();
        result.set("draining", JsonValue::makeBool(true));
        return serve::encodeResultReply(req.id, std::move(result),
                                        req.version);
      }
      case RequestType::CacheAppend: {
        bad_requests_.add();
        n_bad_requests_.fetch_add(1, std::memory_order_relaxed);
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
            n_retries_.fetch_add(1, std::memory_order_relaxed);
            sleepFor(opts_.retry.delayMs(op, attempt));
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
            n_failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        prev = b;

        auto fwd = forwardOnce(links, b, payload);
        if (fwd) {
            health_.observeSuccess(b);
            forwarded_.add();
            n_forwarded_.fetch_add(1, std::memory_order_relaxed);
            return std::move(fwd.value());
        }
        // Passive health evidence: the probe thread would take a
        // full interval to notice what forwarding just did.
        health_.observeFailure(b);
        links.erase(b);
    }

    no_backend_.add();
    n_no_backend_.fetch_add(1, std::memory_order_relaxed);
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
            n_probes_.fetch_add(1, std::memory_order_relaxed);
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
                    auto stats = client.value().stats();
                    ok = stats.ok();
                }
            }
            if (ok) {
                health_.observeSuccess(b);
            } else {
                probe_failures_.add();
                n_probe_failures_.fetch_add(
                    1, std::memory_order_relaxed);
                health_.observeFailure(b);
            }
        }
        sleepFor(opts_.probe_interval_ms);
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
    out.set("connections", num(load(n_connections_)));
    out.set("requests", num(load(n_requests_)));
    out.set("forwarded", num(load(n_forwarded_)));
    out.set("retries", num(load(n_retries_)));
    out.set("failovers", num(load(n_failovers_)));
    out.set("no_backend", num(load(n_no_backend_)));
    out.set("bad_requests", num(load(n_bad_requests_)));
    out.set("probes", num(load(n_probes_)));
    out.set("probe_failures", num(load(n_probe_failures_)));
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
