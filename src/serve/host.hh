/**
 * @file
 * The connection lifecycle both daemons share. serve::Server and
 * route::Router each own one ConnectionHost and supply only a
 * per-request handler and one thread of their own (the batcher, the
 * health prober); the host never knows which daemon it serves.
 *
 * The host owns the listener, one acceptor thread, and one reader
 * thread per connection. The acceptor reaps finished readers on
 * every poll, and a failed accept (EMFILE, ...) is warned about,
 * counted as `net.accept_errors`, and retried one poll later --
 * never abandoned, and never spun on while the pending connection
 * keeps the listener readable. A reader hangs up on peers idle past
 * idle_timeout_ms and answers bad input itself: a payload that does
 * not parse gets `bad-request` echoing its id (best effort) and the
 * connection lives on; an oversized or garbage length prefix gets
 * `bad-request` with id 0 and a hang-up, since the stream is
 * unframeable from there. Parsed requests reach the handler on the
 * reader thread, in arrival order. Replies go through write(), which
 * serializes frames per connection.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"
#include "util/net.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace serve {

/** Transport knobs, copied from the owning daemon's options. */
struct HostOptions
{
    std::uint16_t port = 0; ///< 0 = kernel-assigned.
    std::size_t max_frame_bytes = default_max_frame;
    int idle_timeout_ms = 30'000; ///< Reader wait for the next frame.
    int io_timeout_ms = 5'000;    ///< Deadline for writing one frame.
};

/** The owning daemon's counters the host bumps (the daemon declares
 *  them, so each keeps its own metric name and stats key). */
struct HostTallies
{
    telemetry::Tally &connections; ///< Accepted connections.
    telemetry::Tally &requests;    ///< Frames that parsed.
    telemetry::Tally &bad_requests; ///< Frames answered bad-request.
};

/** Listener, acceptor, per-connection readers, drain. */
class ConnectionHost
{
  public:
    /** One accepted connection. */
    struct Connection
    {
        util::Socket sock;
        std::thread thread;
        std::mutex write_mu; ///< Serializes write().
        std::atomic<bool> done{false}; ///< Reader exited (reapable).
    };

    /** Answers one parsed request on its connection's reader thread.
     *  @p seq numbers the connection's frames from 0. */
    using FrameHandler = std::function<void(
        const std::shared_ptr<Connection> &conn, Request req,
        const std::string &payload, std::uint64_t seq)>;

    /** Makes the handler for one new connection; state it captures
     *  is private to that connection's reader. */
    using HandlerFactory = std::function<FrameHandler()>;

    ConnectionHost(HostOptions opts, HostTallies tallies,
                   HandlerFactory make_handler);

    /** requestDrain() + wait(). */
    ~ConnectionHost();

    ConnectionHost(const ConnectionHost &) = delete;
    ConnectionHost &operator=(const ConnectionHost &) = delete;

    /** Bind, listen, and spawn the acceptor and @p worker (the
     *  daemon's own thread, joined by wait()). */
    [[nodiscard]] util::Result<void> start(std::function<void()> worker);

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** True once requestDrain() has been called. */
    bool
    draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** Stop accepting, waking the acceptor at once, and wake
     *  sleepFor() (idempotent). */
    void requestDrain();

    /** Join the acceptor and the worker, then close and join every
     *  connection (idempotent; a no-op before start()). */
    void wait();

    /** Sleep up to @p ms; returns early once draining. */
    void sleepFor(int ms);

    /** Write one reply frame to @p conn; a failed write shuts the
     *  connection down, which ends its reader. */
    void write(Connection &conn, const std::string &payload) const;

  private:
    void acceptLoop();
    void readLoop(const std::shared_ptr<Connection> &conn,
                  const FrameHandler &handle);

    HostOptions opts_;
    HostTallies tallies_;
    HandlerFactory make_handler_;
    telemetry::Counter accept_errors_ =
        telemetry::counter("net.accept_errors");

    util::Listener listener_;
    std::uint16_t port_ = 0;
    std::thread acceptor_;
    std::thread worker_;
    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};

    std::mutex drain_mu_;
    std::condition_variable drain_cv_;

    std::mutex conns_mu_;
    // ramp-lint: guarded_by(conns_mu_)
    std::vector<std::shared_ptr<Connection>> conns_;

    std::mutex done_mu_;
    // ramp-lint: guarded_by(done_mu_): joined_
    bool joined_ = false;
};

/** Daemon mains: SIGTERM and SIGINT begin a drain, and SIGPIPE is
 *  ignored so a peer closing mid-write surfaces as a write error. */
void installDrainSignals();

/**
 * The rest of a daemon main's life: print "<name>: listening on
 * 127.0.0.1:<port>" to stdout, write the port to @p port_file (if
 * non-empty; written after listen() succeeded, so a watcher that
 * sees the file can connect at once), then block until a drain
 * signal or @p draining() and print "<name>: draining (...)" to
 * stderr. The caller then stops its daemon.
 */
void waitForDrain(const char *name, std::uint16_t port,
                  const std::string &port_file,
                  const std::function<bool()> &draining);

} // namespace serve
} // namespace ramp
