/**
 * @file
 * Loopback tests for the length-prefixed frame codec: partial
 * writes reassembled, oversized frames rejected before the payload
 * is read, garbage ahead of a frame detected, half-closed sockets,
 * and read deadlines. Also pins the transport rule that every stream
 * socket runs with Nagle's algorithm off, on both ends and on the
 * accepted sockets of both daemons, and the connection host both
 * daemons share: the same answers to bad input, and accepts that
 * resume once a descriptor frees up.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "route/router.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace util {
namespace {

/** One accepted loopback socket pair. */
struct Pair
{
    Listener listener;
    Socket client;
    Socket server;
};

Pair
loopbackPair()
{
    Pair pair;
    auto listener = listenTcp(0);
    EXPECT_TRUE(listener.ok()) << listener.error().str();
    pair.listener = std::move(listener.value());
    auto client = connectTcp(pair.listener.port, 2'000);
    EXPECT_TRUE(client.ok()) << client.error().str();
    pair.client = std::move(client.value());
    auto server = acceptTcp(pair.listener.socket, 2'000);
    EXPECT_TRUE(server.ok()) << server.error().str();
    pair.server = std::move(server.value());
    return pair;
}

/** Raw send that bypasses the frame writer. */
void
rawSend(const Socket &sock, const std::string &bytes)
{
    ASSERT_EQ(::send(sock.fd(), bytes.data(), bytes.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
}

std::string
prefix(std::uint32_t n)
{
    std::string p(4, '\0');
    p[0] = static_cast<char>(n >> 24);
    p[1] = static_cast<char>(n >> 16);
    p[2] = static_cast<char>(n >> 8);
    p[3] = static_cast<char>(n);
    return p;
}

TEST(Framing, RoundTrip)
{
    Pair pair = loopbackPair();
    const std::string payload = "{\"id\":1,\"type\":\"stats\"}";
    auto written =
        writeFrame(pair.client, payload, 1 << 20, 1'000);
    ASSERT_TRUE(written.ok()) << written.error().str();
    auto frame = readFrame(pair.server, 1 << 20, 1'000);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    ASSERT_TRUE(frame.value().has_value());
    EXPECT_EQ(*frame.value(), payload);
}

TEST(Framing, PartialWritesReassemble)
{
    Pair pair = loopbackPair();
    const std::string payload(300, 'x');
    const std::string wire = prefix(300) + payload;

    // Dribble the frame across five sends with gaps; the reader's
    // deadline covers the whole frame, not each chunk.
    std::thread writer([&] {
        const std::size_t step = wire.size() / 5 + 1;
        for (std::size_t off = 0; off < wire.size(); off += step) {
            rawSend(pair.client,
                    wire.substr(off,
                                std::min(step, wire.size() - off)));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });
    auto frame = readFrame(pair.server, 1 << 20, 5'000);
    writer.join();
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    ASSERT_TRUE(frame.value().has_value());
    EXPECT_EQ(*frame.value(), payload);
}

TEST(Framing, OversizedFrameRejectedBeforePayload)
{
    Pair pair = loopbackPair();
    // Announce 1 MiB against a 4 KiB cap; send no payload at all.
    // The reader must reject from the prefix alone.
    rawSend(pair.client, prefix(1u << 20));
    auto frame = readFrame(pair.server, 4'096, 1'000);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::InvalidInput);
}

TEST(Framing, GarbageBytesLookLikeAnAbsurdLength)
{
    Pair pair = loopbackPair();
    rawSend(pair.client, "GET / HTTP/1.1\r\n\r\n");
    auto frame = readFrame(pair.server, 1 << 20, 1'000);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::InvalidInput);
}

TEST(Framing, CleanEofAtFrameBoundary)
{
    Pair pair = loopbackPair();
    pair.client.shutdownWrite();
    auto frame = readFrame(pair.server, 1 << 20, 1'000);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    EXPECT_FALSE(frame.value().has_value());
}

TEST(Framing, HalfClosedMidFrameIsATornStream)
{
    Pair pair = loopbackPair();
    // Prefix promises 100 bytes; deliver 10, then FIN.
    rawSend(pair.client, prefix(100) + std::string(10, 'y'));
    pair.client.shutdownWrite();
    auto frame = readFrame(pair.server, 1 << 20, 1'000);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::IoFailure);
}

TEST(Framing, HalfClosedPeerStillReceivesReplies)
{
    Pair pair = loopbackPair();
    const std::string payload = "last-request";
    auto written =
        writeFrame(pair.client, payload, 1 << 20, 1'000);
    ASSERT_TRUE(written.ok());
    pair.client.shutdownWrite(); // FIN after the request.

    auto frame = readFrame(pair.server, 1 << 20, 1'000);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame.value().has_value());
    EXPECT_EQ(*frame.value(), payload);

    // The server side can still answer on the other half.
    auto reply = writeFrame(pair.server, "reply", 1 << 20, 1'000);
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    auto got = readFrame(pair.client, 1 << 20, 1'000);
    ASSERT_TRUE(got.ok()) << got.error().str();
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), "reply");
}

TEST(Framing, ReadDeadlineIsTimeout)
{
    Pair pair = loopbackPair();
    const auto t0 = std::chrono::steady_clock::now();
    auto frame = readFrame(pair.server, 1 << 20, 100);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Timeout);
    EXPECT_GE(waited_ms, 90.0);
    EXPECT_LT(waited_ms, 5'000.0);
}

TEST(Framing, SocketReceiveTimeoutSurfacesAsTimeout)
{
    Pair pair = loopbackPair();
    // Promise 100 payload bytes, deliver 10, keep the socket open:
    // the reader is parked mid-frame. With no poll() deadline
    // (timeout_ms < 0) only the kernel's SO_RCVTIMEO can end the
    // wait, and it must surface as a structured Timeout -- the codec
    // used to retry EAGAIN like EINTR, spinning on the stalled peer
    // forever.
    timeval tv{};
    tv.tv_usec = 100'000; // 100 ms
    ASSERT_EQ(::setsockopt(pair.server.fd(), SOL_SOCKET, SO_RCVTIMEO,
                           &tv, sizeof tv),
              0);
    rawSend(pair.client, prefix(100) + std::string(10, 'y'));

    const auto t0 = std::chrono::steady_clock::now();
    auto frame = readFrame(pair.server, 1 << 20, /*timeout_ms=*/-1);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Timeout);
    EXPECT_NE(frame.error().message.find("timeout"),
              std::string::npos)
        << frame.error().str();
    EXPECT_GE(waited_ms, 90.0);
    EXPECT_LT(waited_ms, 5'000.0);
}

TEST(Framing, WriteIntoClosedPeerFailsStructurallyNotSigpipe)
{
    Pair pair = loopbackPair();
    pair.server = Socket(); // Close the receiving end entirely.

    // The first write usually lands in the kernel buffer before the
    // RST arrives; keep writing until the failure surfaces. Writing
    // into the dead half raises SIGPIPE unless the writer sends with
    // MSG_NOSIGNAL -- the process surviving to return a structured
    // error IS the assertion (a router must observe a killed
    // backend, not die with it).
    Result<void> written;
    for (int i = 0; i < 50 && written.ok(); ++i) {
        written = writeFrame(pair.client,
                             std::string(4'096, 'p'), 1 << 20,
                             1'000);
        if (written.ok())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrorCode::IoFailure);
}

TEST(Framing, StalledMidFrameDeadlineCoversTheWholeFrame)
{
    Pair pair = loopbackPair();
    // Promise 1000 bytes and dribble one byte every 40 ms -- each
    // arrival beats a per-read deadline, so a codec that restarts
    // its timeout per chunk hangs for 40 seconds on a reply frame
    // that never completes. The deadline must cover the whole
    // frame: one structured Timeout, ~300 ms after the read began.
    std::atomic<bool> stop{false};
    std::thread dribbler([&] {
        rawSend(pair.client, prefix(1'000));
        while (!stop.load()) {
            const char byte = 'z';
            (void)::send(pair.client.fd(), &byte, 1, MSG_NOSIGNAL);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40));
        }
    });
    const auto t0 = std::chrono::steady_clock::now();
    auto frame = readFrame(pair.server, 1 << 20, 300);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    dribbler.join();
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.error().code, ErrorCode::Timeout);
    EXPECT_GE(waited_ms, 250.0);
    EXPECT_LT(waited_ms, 2'000.0);
}

TEST(Framing, WriterRefusesOversizedPayload)
{
    Pair pair = loopbackPair();
    auto written = writeFrame(pair.client, std::string(5'000, 'z'),
                              4'096, 1'000);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrorCode::InvalidInput);
}

int
noDelay(const Socket &sock)
{
    int value = -1;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value,
                           &len),
              0);
    return value;
}

TEST(Framing, BothEndsRunWithNagleOff)
{
    // With Nagle on, a reply written while the previous one is still
    // unacknowledged waits for the peer's delayed ACK. Accepted
    // sockets are the ones the daemons reply on.
    Pair pair = loopbackPair();
    EXPECT_EQ(noDelay(pair.client), 1);
    EXPECT_EQ(noDelay(pair.server), 1);
}

/** Send two stats requests back to back on one connection to
 *  @p port, then collect both replies. */
void
expectPipelinedStats(std::uint16_t port)
{
    serve::ClientOptions opts;
    opts.port = port;
    opts.io_timeout_ms = 5'000;
    auto client = serve::Client::connect(opts);
    ASSERT_TRUE(client.ok()) << client.error().str();
    serve::Request stats;
    stats.type = serve::RequestType::Stats;
    std::set<std::uint64_t> sent;
    for (int i = 0; i < 2; ++i) {
        auto id = client.value().sendRequest(stats);
        ASSERT_TRUE(id.ok()) << id.error().str();
        sent.insert(id.value());
    }
    std::set<std::uint64_t> answered;
    for (int i = 0; i < 2; ++i) {
        auto reply = client.value().receiveReply();
        ASSERT_TRUE(reply.ok()) << reply.error().str();
        EXPECT_TRUE(reply.value().ok) << reply.value().error_message;
        answered.insert(reply.value().id);
    }
    EXPECT_EQ(answered, sent);
}

/** A one-app, in-memory-cache service with short simulations. */
serve::ServiceOptions
tinyService()
{
    serve::ServiceOptions opts;
    opts.cache_path = "";
    opts.threads = 1;
    opts.max_apps = 1;
    opts.eval_params.warmup_uops = 40'000;
    opts.eval_params.measure_uops = 60'000;
    return opts;
}

/** A started serve::Server and a route::Router fronting it. */
struct Daemons
{
    serve::EvaluationService service{tinyService()};
    serve::Server server{service, serve::ServerOptions{}};
    std::unique_ptr<route::Router> router;

    Daemons()
    {
        auto started = server.start();
        EXPECT_TRUE(started.ok()) << started.error().str();
        route::RouterOptions router_opts;
        router_opts.backends = {server.port()};
        router = std::make_unique<route::Router>(router_opts);
        auto routed = router->start();
        EXPECT_TRUE(routed.ok()) << routed.error().str();
    }
};

TEST(Framing, DaemonsAnswerPipelinedFramesOnAcceptedSockets)
{
    Daemons daemons;
    expectPipelinedStats(daemons.server.port());
    expectPipelinedStats(daemons.router->port());
}

TEST(Framing, DaemonsStopWithoutWaitingOutTheAcceptPoll)
{
    // A drain wakes the acceptor parked on its listener instead of
    // waiting for its poll period to run out, and that wake is not
    // an accept error.
    Daemons daemons;
    daemons.service.ensureReady(); // The batcher's start-up, done.
    const auto accept_errors = [] {
        return telemetry::Registry::instance().snapshot().counter(
            "net.accept_errors");
    };
    const std::uint64_t errors_before = accept_errors();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto stopMs = [](auto &daemon) {
        const auto t0 = std::chrono::steady_clock::now();
        daemon.stop();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    EXPECT_LT(stopMs(*daemons.router), 50.0);
    EXPECT_LT(stopMs(daemons.server), 50.0);
    EXPECT_EQ(accept_errors(), errors_before);
}

/** Every reply @p port sends to a payload that is not a valid
 *  request followed by an oversized length prefix, up to hang-up. */
std::vector<std::string>
badInputReplies(std::uint16_t port)
{
    std::vector<std::string> replies;
    auto sock = connectTcp(port, 2'000);
    EXPECT_TRUE(sock.ok()) << sock.error().str();
    if (!sock.ok())
        return replies;
    EXPECT_TRUE(writeFrame(sock.value(), "{\"id\":7,\"type\":\"nope\"}",
                           serve::default_max_frame, 1'000)
                    .ok());
    rawSend(sock.value(),
            prefix(static_cast<std::uint32_t>(serve::default_max_frame) +
                   1));
    for (;;) {
        auto frame =
            readFrame(sock.value(), serve::default_max_frame, 5'000);
        // The daemon hangs up after the bad prefix: a clean FIN, or
        // a reset if our bytes were still unread. Never a timeout.
        if (!frame.ok()) {
            EXPECT_EQ(frame.error().code, ErrorCode::IoFailure)
                << frame.error().str();
            break;
        }
        if (!frame.value().has_value())
            break;
        replies.push_back(*frame.value());
    }
    return replies;
}

TEST(Framing, DaemonsAnswerBadInputAlike)
{
    // One reader loop answers bad input for both daemons: the bad
    // payload gets bad-request echoing its id, the unframeable
    // prefix gets bad-request with id 0 and then a hang-up.
    Daemons daemons;
    const auto served = badInputReplies(daemons.server.port());
    ASSERT_EQ(served.size(), 2u);
    EXPECT_NE(served[0].find("\"id\":7"), std::string::npos) << served[0];
    EXPECT_NE(served[1].find("\"id\":0"), std::string::npos) << served[1];
    for (const std::string &reply : served)
        EXPECT_NE(reply.find(serve::err_bad_request), std::string::npos)
            << reply;
    EXPECT_EQ(badInputReplies(daemons.router->port()), served);
}

/** One stats round trip on @p sock; true when it is answered. */
bool
statsAnswered(const Socket &sock)
{
    serve::Request stats;
    stats.type = serve::RequestType::Stats;
    if (!writeFrame(sock, serve::encodeRequest(stats),
                    serve::default_max_frame, 1'000))
        return false;
    auto reply = readFrame(sock, serve::default_max_frame, 5'000);
    return reply.ok() && reply.value().has_value() &&
           serve::parseReply(*reply.value()).ok();
}

/**
 * Exhaust the process's descriptors so the server's accept fails
 * (EMFILE) with a connection pending, then free one: the pending
 * connection must be accepted and answered. Exits 0 on success.
 */
[[noreturn]] void
serveAfterDescriptorExhaustion()
{
    // No router here: its prober's connects would race us for the
    // freed descriptor.
    serve::EvaluationService service(tinyService());
    serve::Server server(service, serve::ServerOptions{});
    if (!server.start().ok())
        std::_Exit(1);
    const auto failed = [] {
        return telemetry::Registry::instance().snapshot().counter(
            "net.accept_errors");
    };
    // Walk the accept, serve and warn paths once while descriptors
    // are free: a sanitizer runtime may need one of its own the first
    // time it sees a type (UBSan's vptr check probes memory through
    // a pipe), which would misreport once none are left.
    {
        auto warm = connectTcp(server.port(), 2'000);
        if (!warm.ok() || !statsAnswered(warm.value()))
            std::_Exit(2);
    }
    util::warn(util::cat("accept errors before exhaustion: ",
                         failed()));

    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    lim.rlim_cur = std::min<rlim_t>(lim.rlim_cur, 256);
    ::setrlimit(RLIMIT_NOFILE, &lim);
    std::vector<int> spare;
    for (int fd; (fd = ::dup(0)) >= 0;)
        spare.push_back(fd);
    // Exactly one descriptor for our end of the connection; the
    // server's end then has none.
    ::close(spare.back());
    spare.pop_back();
    auto sock = connectTcp(server.port(), 2'000);
    if (!sock.ok())
        std::_Exit(3);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (failed() == 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (failed() == 0)
        std::_Exit(4);

    ::close(spare.back());
    spare.pop_back();
    const bool answered = statsAnswered(sock.value());
    for (int fd : spare)
        ::close(fd);
    sock.value().close();
    server.stop();
    std::_Exit(answered ? 0 : 5);
}

TEST(FramingDeathTest, AcceptErrorsAreRetriedNotFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(serveAfterDescriptorExhaustion(),
                ::testing::ExitedWithCode(0), "accept failed");
}

} // namespace
} // namespace util
} // namespace ramp
