#include "serve/host.hh"

// ramp-lint: guarded_by(conns_mu_): conns_

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <utility>

#include "util/json.hh"
#include "util/logging.hh"

namespace ramp {
namespace serve {

using util::ErrorCode;
using util::RampError;
using util::Result;

namespace {

/** Acceptor poll period: the reap cadence and the back-off after a
 *  failed accept. A drain does not wait for it: requestDrain() wakes
 *  the acceptor at once. */
constexpr int poll_ms = 200;

volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

/**
 * The bad-request reply to a payload parseRequest() rejected. The id
 * is recovered best-effort, so the reply still correlates when the
 * client got only one field wrong; 0 when even that is unusable.
 */
std::string
badRequestReply(std::string_view payload, std::string_view message)
{
    const auto doc = util::parseJson(payload, nullptr);
    const util::JsonValue *id = doc ? doc->find("id") : nullptr;
    return encodeErrorReply(id ? id->asUint().value_or(0) : 0,
                            err_bad_request, message);
}

} // namespace

ConnectionHost::ConnectionHost(HostOptions opts, HostTallies tallies,
                               HandlerFactory make_handler)
    : opts_(opts), tallies_(tallies),
      make_handler_(std::move(make_handler))
{
}

ConnectionHost::~ConnectionHost()
{
    requestDrain();
    wait();
}

Result<void>
ConnectionHost::start(std::function<void()> worker)
{
    if (started_.exchange(true))
        return RampError{ErrorCode::InvalidInput, "already started"};
    auto listener = util::listenTcp(opts_.port);
    if (!listener)
        return listener.error();
    {
        std::lock_guard lock(drain_mu_); // requestDrain() reads it.
        listener_ = std::move(listener.value());
    }
    port_ = listener_.port;
    acceptor_ = std::thread([this] { acceptLoop(); });
    worker_ = std::thread(std::move(worker));
    return {};
}

void
ConnectionHost::requestDrain()
{
    {
        std::lock_guard lock(drain_mu_);
        draining_.store(true, std::memory_order_release);
        // Wake the acceptor parked in poll() on the listener now,
        // rather than when its poll period runs out. Under drain_mu_
        // so wait() cannot close the listener underneath.
        listener_.socket.shutdownBoth();
    }
    drain_cv_.notify_all();
}

void
ConnectionHost::sleepFor(int ms)
{
    if (ms <= 0)
        return;
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                       [this] { return draining(); });
}

void
ConnectionHost::wait()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    std::lock_guard done(done_mu_);
    if (joined_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    if (worker_.joinable())
        worker_.join();
    // The daemon's own thread has finished its admitted work; now
    // wake every reader still parked on its socket and collect them.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard lock(conns_mu_);
        conns.swap(conns_);
    }
    for (auto &conn : conns)
        conn->sock.shutdownBoth();
    for (auto &conn : conns)
        if (conn->thread.joinable())
            conn->thread.join();
    {
        std::lock_guard lock(drain_mu_);
        listener_.socket.close();
    }
    joined_ = true;
}

void
ConnectionHost::acceptLoop()
{
    while (!draining()) {
        auto accepted = util::acceptTcp(listener_.socket, poll_ms);
        {
            // Join finished readers, then drop the joined ones. A
            // reader finishing between the two passes keeps its
            // entry until the next pass, so no entry ever drops the
            // last reference to a joinable thread.
            std::lock_guard lock(conns_mu_);
            for (auto &conn : conns_)
                if (conn->done.load(std::memory_order_acquire) &&
                    conn->thread.joinable())
                    conn->thread.join();
            std::erase_if(conns_, [](const auto &conn) {
                return conn->done.load(std::memory_order_acquire) &&
                       !conn->thread.joinable();
            });
        }
        if (!accepted) {
            // The drain's wake-up fails the accept; that is the drain,
            // not an accept error.
            if (accepted.error().code != ErrorCode::Timeout &&
                !draining()) {
                util::warn(util::cat("accept failed: ",
                                     accepted.error().message,
                                     " (retrying)"));
                accept_errors_.add();
                sleepFor(poll_ms);
            }
            continue;
        }
        tallies_.connections.add();
        auto conn = std::make_shared<Connection>();
        conn->sock = std::move(accepted.value());
        {
            std::lock_guard lock(conns_mu_);
            conns_.push_back(conn);
        }
        conn->thread = std::thread(
            [this, conn, handle = make_handler_()] {
                readLoop(conn, handle);
            });
    }
}

void
ConnectionHost::readLoop(const std::shared_ptr<Connection> &conn,
                         const FrameHandler &handle)
{
    for (std::uint64_t seq = 0;; ++seq) {
        auto frame = util::readFrame(conn->sock, opts_.max_frame_bytes,
                                     opts_.idle_timeout_ms);
        if (!frame) {
            if (frame.error().code == ErrorCode::InvalidInput) {
                // Oversized length prefix, or garbage bytes that
                // misparsed as one: tell the peer why, then hang up.
                tallies_.bad_requests.add();
                write(*conn, encodeErrorReply(0, err_bad_request,
                                              frame.error().message));
            }
            break; // Timeout (idle peer) or IoFailure: just drop.
        }
        if (!frame.value().has_value())
            break; // Clean EOF at a frame boundary.
        const std::string &payload = *frame.value();
        auto parsed = parseRequest(payload);
        if (!parsed) {
            tallies_.bad_requests.add();
            write(*conn,
                  badRequestReply(payload, parsed.error().message));
            continue;
        }
        tallies_.requests.add();
        handle(conn, std::move(parsed.value()), payload, seq);
    }
    conn->done.store(true, std::memory_order_release);
}

void
ConnectionHost::write(Connection &conn,
                      const std::string &payload) const
{
    std::lock_guard lock(conn.write_mu);
    if (!util::writeFrame(conn.sock, payload, opts_.max_frame_bytes,
                          opts_.io_timeout_ms))
        conn.sock.shutdownBoth();
}

void
installDrainSignals()
{
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);
}

void
waitForDrain(const char *name, std::uint16_t port,
             const std::string &port_file,
             const std::function<bool()> &draining)
{
    std::fprintf(stdout, "%s: listening on 127.0.0.1:%u\n", name,
                 port);
    std::fflush(stdout);
    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << port << "\n";
        if (!out)
            util::fatal(util::cat("cannot write --port-file ",
                                  port_file));
    }
    while (g_signal == 0 && !draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::fprintf(stderr, "%s: draining (%s)\n", name,
                 g_signal ? "signal" : "shutdown request");
}

} // namespace serve
} // namespace ramp
