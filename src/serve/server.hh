/**
 * @file
 * The RAMP evaluation daemon: a batched, backpressured TCP front-end
 * over EvaluationService.
 *
 * Threading model. One acceptor thread accepts loopback connections;
 * each connection gets a reader thread that parses frames and either
 * answers inline (stats, shutdown, malformed input, admission
 * rejections) or enqueues work; one batcher thread owns the
 * evaluation pool. The batcher pops up to batch_max queued requests,
 * coalesces evaluate requests that name the same (app, space, config)
 * point into a single evaluation (single-flight), fans the unique
 * points across the service's ThreadPool, and runs select requests
 * sequentially (they fan out on the pool themselves). Replies are
 * written under a per-connection write mutex, since the reader thread
 * (errors) and the batcher (results) both write.
 *
 * Admission control. The request queue is bounded at queue_depth;
 * when it is full, new work is answered immediately with an
 * "overloaded" error reply -- callers always get an explicit answer,
 * never a silent hang. During drain, new work gets "shutting-down".
 *
 * Drain semantics. requestDrain() (or a shutdown request, or SIGTERM
 * in ramp_served) stops the acceptor, flips the queue to rejecting,
 * lets the batcher finish everything already admitted, then
 * half-closes every connection so readers wake and exit. Admitted
 * work is never dropped.
 *
 * Fault injection. With a fault plan installed, conn-drop severs the
 * connection instead of replying and conn-slow delays the reply --
 * both decided by a pure hash of the request payload plus its
 * per-connection sequence number, so a faulted run is reproducible.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"
#include "serve/service.hh"
#include "util/net.hh"
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
    std::uint16_t port() const { return port_; }

    /** True once a drain has begun (shutdown request or SIGTERM). */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** Begin graceful drain (idempotent, non-blocking). */
    void requestDrain();

    /** Block until the drain completes and all threads are joined. */
    void wait();

    /** requestDrain() + wait(). Safe to call repeatedly. */
    void stop();

    /** Server-side counters for stats replies and tests. */
    util::JsonValue statsJson() const;

  private:
    /** One accepted connection's shared state. */
    struct Connection
    {
        util::Socket sock;
        std::thread thread;
        std::mutex write_mu; ///< Reader + batcher both reply.
        std::atomic<bool> done{false}; ///< Reader exited (reapable).
    };

    /** One admitted request waiting for the batcher. */
    struct Job
    {
        std::shared_ptr<Connection> conn;
        Request req;
        /** Payload + per-connection sequence: the deterministic
         *  fault-decision key. */
        std::string fault_key;
        std::chrono::steady_clock::time_point admitted;
    };

    void acceptLoop();
    void connectionLoop(const std::shared_ptr<Connection> &conn);
    void batchLoop();
    void runBatch(std::vector<Job> &batch);

    /** Answer one frame that never reaches the queue. */
    void replyInline(const std::shared_ptr<Connection> &conn,
                     const std::string &payload,
                     std::uint64_t seq);

    /** Apply reply-time faults and write one frame (write_mu). */
    void sendReply(const std::shared_ptr<Connection> &conn,
                   std::string_view fault_key,
                   const std::string &payload);

    EvaluationService &service_;
    ServerOptions opts_;

    util::Listener listener_;
    std::uint16_t port_ = 0;
    std::thread acceptor_;
    std::thread batcher_;
    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};

    mutable std::mutex conns_mu_;
    // ramp-lint: guarded_by(conns_mu_)
    std::vector<std::shared_ptr<Connection>> conns_;

    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    // ramp-lint: guarded_by(queue_mu_)
    std::deque<Job> queue_;

    std::mutex done_mu_;
    bool joined_ = false;

    telemetry::Counter requests_ =
        telemetry::counter("server.requests");
    telemetry::Counter batches_ = telemetry::counter("server.batches");
    telemetry::Counter rejected_ =
        telemetry::counter("server.rejected");
    telemetry::Counter bad_requests_ =
        telemetry::counter("server.bad_requests");
    telemetry::Counter coalesced_ =
        telemetry::counter("server.coalesced");
    telemetry::Counter connections_ =
        telemetry::counter("server.connections");
    telemetry::Counter hellos_ = telemetry::counter("server.hellos");
    telemetry::Counter usage_reports_ =
        telemetry::counter("server.usage_reports");
    telemetry::Counter cache_appends_ =
        telemetry::counter("server.cache_appends");
    telemetry::Gauge queue_depth_ =
        telemetry::gauge("server.queue_depth");
    telemetry::Histogram request_s_ =
        telemetry::histogram("server.request_s", 0.0, 10.0, 40);
    telemetry::Histogram batch_s_ =
        telemetry::histogram("server.batch_s", 0.0, 10.0, 40);
    telemetry::Histogram batch_size_ =
        telemetry::histogram("server.batch_size", 0.0, 64.0, 32);

    /** Plain tallies mirrored into statsJson() (the telemetry
     *  counters are per-thread and cheap, but a stats reply needs a
     *  consistent point-in-time view without a registry snapshot). */
    std::atomic<std::uint64_t> n_requests_{0};
    std::atomic<std::uint64_t> n_batches_{0};
    std::atomic<std::uint64_t> n_rejected_{0};
    std::atomic<std::uint64_t> n_bad_requests_{0};
    std::atomic<std::uint64_t> n_coalesced_{0};
    std::atomic<std::uint64_t> n_connections_{0};
    std::atomic<std::uint64_t> n_hellos_{0};
    std::atomic<std::uint64_t> n_usage_reports_{0};
    std::atomic<std::uint64_t> n_cache_appends_{0};
};

} // namespace serve
} // namespace ramp
