/**
 * @file
 * Minimal POSIX TCP plumbing for the serving layer (src/serve): RAII
 * sockets, loopback listeners, deadline-bounded exact reads/writes,
 * and the length-prefixed frame codec the evaluation service speaks.
 *
 * Everything here returns Result rather than throwing: a peer that
 * vanishes, stalls, or sends garbage is a *per-connection* failure,
 * never a process-level one. Deadlines are enforced with poll(), so a
 * slow or half-open peer costs a bounded wait, not a hung thread.
 *
 * Frame format: a 4-byte big-endian payload length followed by that
 * many payload bytes (JSON in the serve protocol, but the codec is
 * content-agnostic). The length is bounded by the caller's
 * max_payload; an oversized or absurd length is reported as
 * InvalidInput *before* any payload is read, so one malformed client
 * cannot make the server buffer unbounded memory.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Owning file-descriptor wrapper (close on destruction). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }

    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close now (idempotent). */
    void close();

    /** Half-close the write side (sends FIN; reads keep working). */
    void shutdownWrite();

    /** Shut down both directions without closing the fd: unblocks a
     *  peer thread parked in poll()/recv() on this socket. */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** A bound, listening socket plus the port it landed on. */
struct Listener
{
    Socket socket;
    std::uint16_t port = 0;
};

/**
 * Bind and listen on 127.0.0.1:@p port (0 = kernel-assigned
 * ephemeral port, reported back in Listener::port). Loopback only:
 * the evaluation service is an internal daemon, not an internet
 * endpoint.
 */
[[nodiscard]] Result<Listener> listenTcp(std::uint16_t port, int backlog = 64);

/**
 * Accept one connection, waiting at most @p timeout_ms (< 0 waits
 * forever). Timeout when nothing arrived; IoFailure when the listener
 * broke (e.g. closed during drain). The accepted socket has
 * TCP_NODELAY set, like every stream socket from this module, so a
 * reply never waits for the peer's delayed ACK of the previous one.
 */
[[nodiscard]] Result<Socket> acceptTcp(const Socket &listener, int timeout_ms);

/**
 * Connect to 127.0.0.1:@p port, with TCP_NODELAY set on the socket.
 * The loopback connect is blocking and @p timeout_ms is not applied
 * to it; the caller's deadline applies from the first read or write.
 */
[[nodiscard]] Result<Socket> connectTcp(std::uint16_t port, int timeout_ms);

/**
 * Read exactly @p n bytes within @p timeout_ms (deadline for the
 * whole read, < 0 waits forever). A clean EOF *before the first
 * byte* returns nullopt (the peer finished); EOF mid-buffer is
 * IoFailure (a torn frame), and an expired deadline is Timeout.
 *
 * A socket-level receive timeout (SO_RCVTIMEO) also surfaces as
 * Timeout -- never as a silent retry, which would spin past the
 * caller's deadline on a stalled peer. With @p timeout_ms < 0 the
 * read is not poll()-gated, so a configured SO_RCVTIMEO still
 * bounds the wait.
 */
[[nodiscard]] Result<std::optional<std::string>>
readExact(const Socket &sock, std::size_t n, int timeout_ms);

/** Write all of @p data within @p timeout_ms. Timeout semantics as
 *  readExact (SO_SNDTIMEO surfaces as Timeout, never a retry). */
[[nodiscard]] Result<void> writeAll(const Socket &sock, std::string_view data,
                      int timeout_ms);

/**
 * Read one length-prefixed frame. nullopt on clean EOF at a frame
 * boundary; InvalidInput when the prefix exceeds @p max_payload
 * (garbage bytes ahead of a frame land here too -- they misparse as
 * an absurd length); Timeout/IoFailure as readExact. @p timeout_ms
 * is one deadline for the *whole* frame -- prefix and payload share
 * it, so a peer that dies after a partial frame surfaces as a
 * structured error within a single timeout, never two.
 */
[[nodiscard]] Result<std::optional<std::string>>
readFrame(const Socket &sock, std::size_t max_payload,
          int timeout_ms);

/** Write one length-prefixed frame. InvalidInput when @p payload
 *  exceeds @p max_payload. Prefix and payload go out in one send
 *  (retried only after a partial write), so a frame never leaves as
 *  a separate 4-byte segment. */
[[nodiscard]] Result<void> writeFrame(const Socket &sock, std::string_view payload,
                        std::size_t max_payload, int timeout_ms);

} // namespace util
} // namespace ramp
