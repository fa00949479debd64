/**
 * @file
 * The RAMP evaluation daemon: a batched, backpressured TCP front-end
 * over EvaluationService.
 *
 * Threading model. Connections belong to the serve::ConnectionHost
 * both daemons share (serve/host.hh): its reader threads hand the
 * server each parsed request. Stats, shutdown, hello, report_usage,
 * cache_append and admission rejections are answered on the reader
 * thread at once. Evaluations and selections go through one
 * executor at a time: a request that finds the server idle (nothing
 * executing, queue empty) runs on its reader thread as a batch of
 * one; one that arrives while a batch executes is queued. The
 * server's own thread is the batcher, which serves that backlog: it
 * pops up to batch_max queued requests, coalesces evaluates naming
 * the same (app, space, config) point into one evaluation
 * (single-flight), fans the unique points across the service's
 * ThreadPool, and runs selections one by one (they fan out on the
 * pool themselves). Since a request runs inline only when nothing
 * is queued, none overtakes one admitted before it.
 *
 * Admission control. The request queue is bounded at queue_depth;
 * when it is full, new work is answered immediately with an
 * "overloaded" error reply -- callers always get an explicit answer,
 * never a silent hang. During drain, new work gets "shutting-down".
 *
 * Drain semantics. requestDrain() (or a shutdown request, or SIGTERM
 * in ramp_served) stops the acceptor, flips the queue to rejecting,
 * lets the batcher finish everything already admitted (and waits out
 * an inline run in flight), then half-closes every connection so
 * readers wake and exit. Admitted work is never dropped.
 *
 * Fault injection. With a fault plan installed, conn-drop severs the
 * connection instead of replying and conn-slow delays the reply --
 * both decided by a pure hash of the request payload plus its
 * per-connection sequence number, so a faulted run is reproducible.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/host.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace serve {

/** Serving knobs (the engine's knobs live in ServiceOptions). */
struct ServerOptions
{
    /** Listen port; 0 = kernel-assigned (see Server::port()). */
    std::uint16_t port = 0;
    /** Bounded admission queue; beyond this, "overloaded". */
    std::size_t queue_depth = 64;
    /** Max requests the batcher coalesces into one batch. */
    std::size_t batch_max = 16;
    /** Per-frame payload cap, both directions. */
    std::size_t max_frame_bytes = default_max_frame;
    /** Reader wait for the next frame; idle peers are disconnected. */
    int idle_timeout_ms = 30'000;
    /** Deadline for writing one reply frame. */
    int io_timeout_ms = 5'000;
};

/** The evaluation daemon. start() .. stop() brackets a lifetime. */
class Server
{
  public:
    /** @param service Shared engine; must outlive the server. */
    Server(EvaluationService &service, ServerOptions opts);

    /** Stops (draining) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the acceptor + batcher. */
    [[nodiscard]] util::Result<void> start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return host_.port(); }

    /** True once a drain has begun (shutdown request or SIGTERM). */
    bool draining() const { return host_.draining(); }

    /** Begin graceful drain (idempotent, non-blocking). */
    void requestDrain();

    /** Block until the drain completes and all threads are joined. */
    void wait() { host_.wait(); }

    /** requestDrain() + wait(). Safe to call repeatedly. */
    void stop();

    /** Server-side counters for stats replies and tests. */
    util::JsonValue statsJson() const;

  private:
    using Connection = ConnectionHost::Connection;

    /** One admitted request: run inline, or waiting for the
     *  batcher. */
    struct Job
    {
        std::shared_ptr<Connection> conn;
        Request req;
        /** Payload + per-connection sequence: the deterministic
         *  fault-decision key. */
        std::string fault_key;
        std::chrono::steady_clock::time_point admitted;
    };

    void batchLoop();
    void runBatch(std::vector<Job> &batch);

    /** Answer one request on the reader thread (at once, or as an
     *  inline batch of one on an idle server), or admit it to the
     *  queue. */
    void handle(const std::shared_ptr<Connection> &conn, Request req,
                const std::string &payload, std::uint64_t seq);

    /** Apply reply-time faults and write one frame. */
    void sendReply(const std::shared_ptr<Connection> &conn,
                   std::string_view fault_key,
                   const std::string &payload);

    EvaluationService &service_;
    ServerOptions opts_;

    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    // ramp-lint: guarded_by(queue_mu_)
    std::deque<Job> queue_;
    /** A batch is executing (inline or on the batcher): the one
     *  executor the evaluation state admits. */
    // ramp-lint: guarded_by(queue_mu_)
    bool executing_ = false;

    telemetry::Tally requests_{telemetry::counter("server.requests")};
    telemetry::Tally batches_{telemetry::counter("server.batches")};
    telemetry::Tally rejected_{telemetry::counter("server.rejected")};
    /** Batches of one run on an idle server's reader thread. */
    telemetry::Counter inline_ = telemetry::counter("server.inline");
    telemetry::Tally bad_requests_{
        telemetry::counter("server.bad_requests")};
    telemetry::Tally coalesced_{
        telemetry::counter("server.coalesced")};
    telemetry::Tally connections_{
        telemetry::counter("server.connections")};
    telemetry::Tally hellos_{telemetry::counter("server.hellos")};
    telemetry::Tally usage_reports_{
        telemetry::counter("server.usage_reports")};
    telemetry::Tally cache_appends_{
        telemetry::counter("server.cache_appends")};
    telemetry::Gauge queue_depth_ =
        telemetry::gauge("server.queue_depth");
    telemetry::Histogram request_s_ =
        telemetry::histogram("server.request_s", 0.0, 10.0, 40);
    telemetry::Histogram batch_s_ =
        telemetry::histogram("server.batch_s", 0.0, 10.0, 40);
    telemetry::Histogram batch_size_ =
        telemetry::histogram("server.batch_size", 0.0, 64.0, 32);

    /** Last member: its destructor joins every thread that uses the
     *  members above. */
    ConnectionHost host_;
};

} // namespace serve
} // namespace ramp
