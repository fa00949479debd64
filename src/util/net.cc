#include "util/net.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace ramp {
namespace util {

namespace {

using Clock = std::chrono::steady_clock;

RampError
errnoError(const char *what)
{
    return RampError{ErrorCode::IoFailure,
                     cat(what, ": ", std::strerror(errno))};
}

/** Milliseconds left until @p deadline; nullopt = no deadline. -1
 *  for poll() means wait forever; an expired deadline clamps to 0 so
 *  poll still reports already-ready fds. */
int
remainingMs(const std::optional<Clock::time_point> &deadline)
{
    if (!deadline)
        return -1;
    const auto left = std::chrono::duration_cast<
        std::chrono::milliseconds>(*deadline - Clock::now());
    return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

std::optional<Clock::time_point>
deadlineFrom(int timeout_ms)
{
    if (timeout_ms < 0)
        return std::nullopt;
    return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/** Wait for @p events on @p fd. Ok when ready, Timeout when the
 *  deadline passed, IoFailure on poll errors. POLLHUP/POLLERR count
 *  as ready: the subsequent read/write reports the condition. */
Result<void>
waitFor(int fd, short events,
        const std::optional<Clock::time_point> &deadline)
{
    for (;;) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = events;
        pfd.revents = 0;
        const int rc = ::poll(&pfd, 1, remainingMs(deadline));
        if (rc > 0)
            return {};
        if (rc == 0)
            return RampError{ErrorCode::Timeout,
                             "deadline elapsed waiting for the peer"};
        if (errno == EINTR)
            continue;
        return errnoError("poll");
    }
}

/** Turn off Nagle's algorithm. Every stream socket this module hands
 *  out -- accepted or connected -- goes through here, so no endpoint
 *  holds a small frame back until the peer ACKs the previous one,
 *  which a delayed ACK stretches to tens of milliseconds. Cheap only
 *  because writeFrame hands each whole frame to one send (see there). */
void
setNoDelay(const Socket &sock)
{
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof(one));
}

} // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Result<Listener>
listenTcp(std::uint16_t port, int backlog)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return errnoError("socket");

    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return errnoError("bind");
    if (::listen(sock.fd(), backlog) != 0)
        return errnoError("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return errnoError("getsockname");

    Listener out;
    out.socket = std::move(sock);
    out.port = ntohs(addr.sin_port);
    return out;
}

Result<Socket>
acceptTcp(const Socket &listener, int timeout_ms)
{
    auto ready = waitFor(listener.fd(), POLLIN,
                         deadlineFrom(timeout_ms));
    if (!ready)
        return ready.error();
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0)
        return errnoError("accept");
    Socket sock(fd);
    setNoDelay(sock);
    return sock;
}

Result<Socket>
connectTcp(std::uint16_t port, int timeout_ms)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return errnoError("socket");

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    // Loopback connects complete (or fail) immediately in practice;
    // a blocking connect with the deadline applied to the first use
    // keeps this simple and still bounded.
    (void)timeout_ms;
    if (::connect(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return errnoError("connect");
    setNoDelay(sock);
    return sock;
}

namespace {

/** readExact against an absolute deadline (shared across the reads
 *  that make up one frame). */
Result<std::optional<std::string>>
readExactUntil(const Socket &sock, std::size_t n,
               const std::optional<Clock::time_point> &deadline)
{
    std::string out;
    out.resize(n);
    std::size_t got = 0;
    while (got < n) {
        // Only EINTR warrants a retry. EAGAIN/EWOULDBLOCK on a
        // blocking socket means a socket-level timeout (SO_RCVTIMEO)
        // fired -- retrying would spin past the caller's deadline,
        // one half-frame at a time, forever on a stalled peer. When
        // the caller supplied no deadline, recv runs ungated so a
        // socket timeout still gets its chance to fire (a poll()
        // with no deadline would otherwise defeat it silently).
        if (deadline) {
            auto ready = waitFor(sock.fd(), POLLIN, deadline);
            if (!ready)
                return ready.error();
        }
        const ssize_t rc =
            ::recv(sock.fd(), out.data() + got, n - got, 0);
        if (rc > 0) {
            got += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc == 0) {
            if (got == 0)
                return std::optional<std::string>(std::nullopt);
            return RampError{ErrorCode::IoFailure,
                             cat("peer closed mid-read (", got,
                                 " of ", n, " bytes)")};
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return RampError{ErrorCode::Timeout,
                             cat("socket receive timeout (", got,
                                 " of ", n, " bytes)")};
        return errnoError("recv");
    }
    return std::optional<std::string>(std::move(out));
}

} // namespace

Result<std::optional<std::string>>
readExact(const Socket &sock, std::size_t n, int timeout_ms)
{
    return readExactUntil(sock, n, deadlineFrom(timeout_ms));
}

Result<void>
writeAll(const Socket &sock, std::string_view data, int timeout_ms)
{
    const auto deadline = deadlineFrom(timeout_ms);
    std::size_t sent = 0;
    while (sent < data.size()) {
        // Timeout semantics mirror readExact: EINTR retries, a
        // socket-level send timeout (SO_SNDTIMEO) surfaces as
        // Timeout instead of spinning, and an absent deadline leaves
        // send ungated so that timeout can fire.
        if (deadline) {
            auto ready = waitFor(sock.fd(), POLLOUT, deadline);
            if (!ready)
                return ready.error();
        }
        const ssize_t rc =
            ::send(sock.fd(), data.data() + sent, data.size() - sent,
                   MSG_NOSIGNAL);
        if (rc > 0) {
            sent += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return RampError{ErrorCode::Timeout,
                             cat("socket send timeout (", sent,
                                 " of ", data.size(), " bytes)")};
        return errnoError("send");
    }
    return {};
}

Result<std::optional<std::string>>
readFrame(const Socket &sock, std::size_t max_payload, int timeout_ms)
{
    // One deadline covers the prefix *and* the payload. Giving the
    // payload read a fresh timeout of its own would let a peer that
    // dies after sending a partial frame (or trickles one byte per
    // deadline) hold the reader for up to twice the configured
    // bound -- the hang-shaped edge the serve clients hit.
    const auto deadline = deadlineFrom(timeout_ms);
    auto prefix = readExactUntil(sock, 4, deadline);
    if (!prefix)
        return prefix.error();
    if (!prefix.value().has_value())
        return std::optional<std::string>(std::nullopt);

    const auto &p = *prefix.value();
    const std::uint32_t len =
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(p[0]))
         << 24) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(p[1]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<unsigned char>(p[2]))
         << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
    if (len > max_payload)
        return RampError{
            ErrorCode::InvalidInput,
            cat("frame of ", len, " bytes exceeds the ", max_payload,
                "-byte limit (or the stream is desynchronized)")};

    auto payload = readExactUntil(sock, len, deadline);
    if (!payload)
        return payload.error();
    if (!payload.value().has_value())
        return RampError{ErrorCode::IoFailure,
                         "peer closed between prefix and payload"};
    return payload;
}

Result<void>
writeFrame(const Socket &sock, std::string_view payload,
           std::size_t max_payload, int timeout_ms)
{
    if (payload.size() > max_payload)
        return RampError{ErrorCode::InvalidInput,
                         cat("refusing to send a ", payload.size(),
                             "-byte frame (limit ", max_payload,
                             ")")};
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    std::string buf;
    buf.reserve(4 + payload.size());
    buf.push_back(static_cast<char>((len >> 24) & 0xff));
    buf.push_back(static_cast<char>((len >> 16) & 0xff));
    buf.push_back(static_cast<char>((len >> 8) & 0xff));
    buf.push_back(static_cast<char>(len & 0xff));
    buf.append(payload);
    // Prefix and payload go to one send (writeAll only continues a
    // partial write). With TCP_NODELAY set, writing the prefix on its
    // own would put a 4-byte runt segment on the wire for every frame.
    return writeAll(sock, buf, timeout_ms);
}

} // namespace util
} // namespace ramp
