/**
 * @file
 * ramp_routed's core: a fault-tolerant sharding front tier over N
 * ramp_served backends.
 *
 * The router speaks the serving protocol on both sides. Client
 * frames are parsed only to classify and route them; the frame that
 * reaches the chosen backend is the client's *original payload*, and
 * the reply written back is the backend's reply payload, both
 * verbatim -- so a routed reply is byte-identical to a direct call
 * by construction, not by re-encoding.
 *
 * Placement is a consistent-hash ring (route/ring.hh) over the
 * request's shard key: `chip` for the v2 fleet verbs (a chip's aging
 * registry lives on exactly one backend), (app, space, config) for
 * evaluate, and (app, space) for selections, so repeat requests hit
 * the same backend's caches. Stats, hello, and shutdown are answered
 * by the router itself; cache_append is the backends' replication
 * verb and is rejected as a bad request when a client sends it.
 *
 * Fault tolerance is three cooperating pieces:
 *
 *  - A health table (route/health.hh) fed by a periodic stats-probe
 *    thread and by passive observation of forwarding failures.
 *  - Bounded retry with deterministic jittered backoff
 *    (route/retry.hh): a transport failure marks the backend,
 *    re-resolves the key to the next usable replica (ring walk,
 *    excluding backends already tried this request), and re-sends.
 *  - Explicit structured failure: when every replica is down or the
 *    retry budget is spent, the client gets an err_no_backend error
 *    reply -- the router never converts a dead backend into a hang.
 *
 * Threading: the connection lifecycle -- listener, acceptor, one
 * reader thread per client connection, bad-input answers, drain and
 * join -- is the serve::ConnectionHost both daemons share
 * (serve/host.hh). Each reader owns its connection's pool of backend
 * sockets (no cross-thread sharing); the router's own thread is the
 * health prober.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "route/health.hh"
#include "route/retry.hh"
#include "route/ring.hh"
#include "serve/host.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/net.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace route {

/** Routing knobs. */
struct RouterOptions
{
    /** Listen port; 0 = kernel-assigned (see Router::port()). */
    std::uint16_t port = 0;
    /** Backend ramp_served ports, in shard order. */
    std::vector<std::uint16_t> backends;
    /** Virtual points per backend on the ring. */
    std::size_t vnodes = 64;
    /** Consecutive failures before a backend is Down. */
    int fail_threshold = 2;
    /** Health-probe period (one stats round trip per backend). */
    int probe_interval_ms = 250;
    /** Retry schedule for forwarding failures. */
    RetryPolicy retry{};
    /** Per-frame payload cap, both sides. */
    std::size_t max_frame_bytes = serve::default_max_frame;
    /** Reader wait for the next client frame. */
    int idle_timeout_ms = 30'000;
    /** Deadline for one backend round trip leg (write or read). */
    int io_timeout_ms = 5'000;
    /** Deadline for one backend connect. */
    int connect_timeout_ms = 1'000;
};

/** The routing daemon. start() .. stop() brackets a lifetime. */
class Router
{
  public:
    explicit Router(RouterOptions opts);

    /** Stops (draining) if still running. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Bind, listen, and spawn the acceptor + probe thread. */
    [[nodiscard]] util::Result<void> start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return host_.port(); }

    /** True once a drain has begun. */
    bool draining() const { return host_.draining(); }

    /** Begin graceful drain (idempotent, non-blocking). */
    void requestDrain() { host_.requestDrain(); }

    /** Block until the drain completes and all threads are joined. */
    void wait() { host_.wait(); }

    /** requestDrain() + wait(). Safe to call repeatedly. */
    void
    stop()
    {
        requestDrain();
        wait();
    }

    /** Health table (tests and the bench assert transitions). */
    const HealthTable &health() const { return health_; }

    /** The placement ring (the bench predicts shard homes with it). */
    const HashRing &ring() const { return ring_; }

    /**
     * The shard key a request routes by: "chip|<chip>" for the v2
     * fleet verbs, "pt|app|space|config" for evaluate,
     * "sel|app|space" for selections. Exposed so the bench and tests
     * can predict placement without a router instance.
     */
    static std::string routeKey(const serve::Request &req);

    /** Router counters + per-backend health (stats replies). */
    util::JsonValue statsJson() const;

  private:
    /** A reader thread's cached backend connections. */
    using BackendLinks = std::map<std::size_t, util::Socket>;

    void probeLoop();

    /** Answer one parsed request: inline verbs locally, everything
     *  else through the forwarding path. Returns the reply payload. */
    std::string handleRequest(const serve::Request &req,
                              const std::string &payload,
                              BackendLinks &links);

    /** The retry loop: resolve, forward, observe, re-resolve. */
    std::string forward(const serve::Request &req,
                        const std::string &payload,
                        BackendLinks &links);

    /** One send/receive against backend @p b (connects on demand,
     *  consulting fault::refuseConnect). Transport errors only; a
     *  structured error reply from the backend is a success here. */
    [[nodiscard]] util::Result<std::string>
    forwardOnce(BackendLinks &links, std::size_t b,
                const std::string &payload);

    RouterOptions opts_;
    HashRing ring_;
    HealthTable health_;

    /** Monotonic connect-attempt ordinals per backend (the
     *  deterministic conn-refuse fault key). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> attempts_;

    telemetry::Tally connections_{
        telemetry::counter("route.connections")};
    telemetry::Tally requests_{telemetry::counter("route.requests")};
    telemetry::Tally forwarded_{
        telemetry::counter("route.forwarded")};
    telemetry::Tally retries_{telemetry::counter("route.retries")};
    telemetry::Tally failovers_{
        telemetry::counter("route.failovers")};
    telemetry::Tally no_backend_{
        telemetry::counter("route.no_backend")};
    telemetry::Tally bad_requests_{
        telemetry::counter("route.bad_requests")};
    telemetry::Tally probes_{telemetry::counter("route.probes")};
    telemetry::Tally probe_failures_{
        telemetry::counter("route.probe_failures")};

    /** Last member: its destructor joins every thread that uses the
     *  members above. */
    serve::ConnectionHost host_;
};

} // namespace route
} // namespace ramp
