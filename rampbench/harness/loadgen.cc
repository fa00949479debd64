#include "loadgen.hh"

#include <poll.h>
#include <sys/prctl.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <semaphore>
#include <thread>

#include "serve/protocol.hh"

namespace ramp {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int io_timeout_ms = 5'000;
/** How long after its last send a phase waits for stragglers. */
constexpr std::chrono::seconds drain_timeout{10};
/** Closed-loop streams are drawn up front, at most this many
 *  requests per second per connection. */
constexpr double closed_loop_max_rps = 50'000.0;

std::int64_t
nsSince(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
        .count();
}

/** Print the first few failures of a run, then stay quiet. */
void
reportFailure(const std::string &what)
{
    static std::atomic<int> printed{0};
    if (printed.fetch_add(1) < 5)
        std::fprintf(stderr, "ramp_bench: request failed: %s\n",
                     what.c_str());
}

} // namespace

void
PhaseResult::merge(PhaseResult other)
{
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    error_replies += other.error_replies;
    transport_errors += other.transport_errors;
    unanswered += other.unanswered;
    latency_s.insert(latency_s.end(), other.latency_s.begin(),
                     other.latency_s.end());
    late_s.insert(late_s.end(), other.late_s.begin(), other.late_s.end());
    completed_in_window += other.completed_in_window;
    inflight_max = std::max(inflight_max, other.inflight_max);
    for (const auto &[verb, n] : other.sent_by_verb)
        sent_by_verb[verb] += n;
    unique_sent.insert(unique_sent.end(), other.unique_sent.begin(),
                       other.unique_sent.end());
    encode_s += other.encode_s;
    decode_s += other.decode_s;
    traced += other.traced;
}

LoadGen::LoadGen(const RequestMix &mix, serve::EvaluationService &shadow,
                 std::uint64_t seed, std::size_t connections,
                 std::size_t conn_base)
    : mix_(mix), shadow_(shadow), seed_(seed), conn_base_(conn_base),
      conns_(connections)
{
}

util::Result<void>
LoadGen::connect(std::uint16_t port)
{
    for (auto &conn : conns_) {
        auto sock = util::connectTcp(port, io_timeout_ms);
        if (!sock)
            return sock.error();
        conn.sock = std::move(sock.value());
    }
    return {};
}

void
LoadGen::close()
{
    for (auto &conn : conns_)
        conn.sock.close();
}

PhaseResult
LoadGen::run(const PhaseSpec &spec, SpanLog *spans)
{
    // A short head start so every thread is parked before the first
    // request falls due.
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<PhaseResult> parts(conns_.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns_.size(); ++c)
        threads.emplace_back([&, c] {
            try {
                parts[c] = runConnection(c, spec, spans, t0);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "ramp_bench: connection %zu: %s\n",
                             c, e.what());
                parts[c] = PhaseResult{};
                parts[c].attempted = parts[c].failed = 1;
                parts[c].latency_s.push_back(failed_latency);
            }
        });
    for (auto &t : threads)
        t.join();
    PhaseResult out;
    for (auto &part : parts)
        out.merge(std::move(part));
    out.window_s = spec.open_loop ? 0.0 : spec.seconds;
    return out;
}

PhaseResult
LoadGen::runConnection(std::size_t c, const PhaseSpec &spec,
                       SpanLog *spans, Clock::time_point t0)
{
    Connection &conn = conns_[c];
    const std::size_t conn_index = conn_base_ + c;
    util::Rng rng(streamSeed(seed_, conn_index, spec.phase));

    // The connection's whole stream, drawn before anything is sent.
    std::vector<Item> items;
    std::vector<double> due_s;
    if (spec.open_loop) {
        const double mean_gap_s =
            static_cast<double>(conns_.size()) / spec.rate_rps;
        for (double t = rng.exponential(mean_gap_s); t < spec.seconds;
             t += rng.exponential(mean_gap_s)) {
            due_s.push_back(t);
            items.push_back(mix_.draw(rng, conn.reports));
        }
    } else {
        const std::size_t n =
            spec.count ? spec.count
                       : static_cast<std::size_t>(spec.seconds *
                                                  closed_loop_max_rps) +
                             spec.window;
        for (std::size_t k = 0; k < n; ++k)
            items.push_back(mix_.draw(rng, conn.reports));
    }
    const std::size_t n = items.size();
    const std::uint64_t id_base = conn.next_id;
    conn.next_id += n;

    // Sender-owned until joined.
    std::vector<std::int64_t> enc_ns(n, -1), sent_ns(n, -1);
    PhaseResult sender;
    // Receiver-owned.
    std::vector<std::int64_t> recv_ns(n, -1), decode_ns(n, 0);
    std::vector<char> ok(n, 0);
    PhaseResult receiver;

    std::atomic<std::size_t> sent_count{0};
    std::atomic<std::size_t> received{0};
    std::atomic<bool> sending_done{false};
    std::atomic<bool> receiver_done{false};
    std::atomic<std::int64_t> last_send_ns{0};
    std::counting_semaphore<> window(
        static_cast<std::ptrdiff_t>(spec.open_loop ? 0 : spec.window));
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.seconds));
    const bool until_deadline = !spec.open_loop && spec.count == 0;

    std::thread send_thread([&] {
        // Wake within microseconds of a due time, not the default
        // 50 us timer slack.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        std::this_thread::sleep_until(t0);
        for (std::size_t k = 0; k < n; ++k) {
            if (spec.open_loop) {
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due_s[k])));
            } else {
                bool acquired = false;
                while (!acquired) {
                    if (receiver_done.load(std::memory_order_acquire) ||
                        (until_deadline && Clock::now() >= deadline))
                        break;
                    acquired = window.try_acquire_for(
                        std::chrono::milliseconds(20));
                }
                if (!acquired ||
                    (until_deadline && Clock::now() >= deadline))
                    break;
            }
            serve::Request req = mix_.request(items[k], conn_index);
            req.id = id_base + k;
            const auto te = Clock::now();
            const std::string payload = serve::encodeRequest(req);
            const auto ts = Clock::now();
            enc_ns[k] = nsSince(t0, te);
            sent_ns[k] = nsSince(t0, ts);
            sender.encode_s += secondsBetween(te, ts);
            if (auto w = util::writeFrame(conn.sock, payload,
                                          serve::default_max_frame,
                                          io_timeout_ms);
                !w) {
                ++sender.transport_errors;
                reportFailure("send: " + w.error().str());
                break;
            }
            last_send_ns.store(sent_ns[k], std::memory_order_release);
            sent_count.store(k + 1, std::memory_order_release);
            sender.inflight_max = std::max<std::uint64_t>(
                sender.inflight_max,
                k + 1 - received.load(std::memory_order_acquire));
            ++sender.sent_by_verb[serve::requestTypeName(req.type)];
            if (items[k].kind == ItemKind::Unique)
                sender.unique_sent.push_back(items[k].index);
        }
        sending_done.store(true, std::memory_order_release);
    });

    const std::string id_prefix = "{\"id\":";
    std::size_t got = 0;
    auto last_progress = Clock::now();
    while (true) {
        if (sending_done.load(std::memory_order_acquire) &&
            got >= sent_count.load(std::memory_order_acquire))
            break;
        // Wait for the next frame to start arriving before reading it:
        // a read deadline that expired mid-frame would consume half a
        // frame and desynchronise the stream.
        pollfd pfd{conn.sock.fd(), POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0) {
            // Outstanding requests get drain_timeout from the last
            // send or reply, whichever is later.
            const auto last_send =
                t0 + std::chrono::nanoseconds(
                         last_send_ns.load(std::memory_order_acquire));
            if (got < sent_count.load(std::memory_order_acquire) &&
                Clock::now() - std::max(last_progress, last_send) >
                    drain_timeout)
                break;
            continue;
        }
        auto frame = util::readFrame(conn.sock, serve::default_max_frame,
                                     io_timeout_ms);
        if (!frame) {
            ++receiver.transport_errors;
            reportFailure("receive: " + frame.error().str());
            break;
        }
        if (!frame.value()) {
            ++receiver.transport_errors;
            reportFailure("receive: connection closed by the server");
            break;
        }
        const auto tr = Clock::now();
        last_progress = tr;
        const std::string &p = *frame.value();

        std::uint64_t id = 0;
        const char *digits = p.data() + id_prefix.size();
        const auto [id_end, ec] =
            p.compare(0, id_prefix.size(), id_prefix) == 0
                ? std::from_chars(digits, p.data() + p.size(), id)
                : std::from_chars_result{digits, std::errc::invalid_argument};
        if (ec != std::errc{} || id < id_base || id - id_base >= n) {
            ++receiver.mismatches;
            reportFailure("reply with an unknown id: " + p);
            continue;
        }
        const std::size_t k = id - id_base;
        if (recv_ns[k] >= 0) {
            ++receiver.mismatches;
            reportFailure("duplicate reply: " + p);
            continue;
        }
        const std::size_t tail_at = static_cast<std::size_t>(id_end - p.data());
        recv_ns[k] = nsSince(t0, tr);
        ++got;
        received.store(got, std::memory_order_release);
        if (!spec.open_loop)
            window.release();

        if (spec.trace) {
            const auto td = Clock::now();
            auto parsed = serve::parseReply(p);
            decode_ns[k] = nsSince(td, Clock::now());
            receiver.decode_s += static_cast<double>(decode_ns[k]) * 1e-9;
            ++receiver.traced;
            if (!parsed)
                reportFailure("unparseable reply: " + p);
        }

        bool good = false;
        std::string want;
        const Item &item = items[k];
        if (item.kind == ItemKind::Unique) {
            const std::string &tail = mix_.table()[item.index].reply_tail;
            good = p.size() - tail_at == tail.size() &&
                   p.compare(tail_at, tail.size(), tail) == 0;
            if (!good)
                want = "{\"id\":" + std::to_string(id) + tail;
        } else if (item.kind == ItemKind::Report) {
            serve::Request req = mix_.request(item, conn_index);
            req.id = id;
            if (auto direct = shadow_.reportUsage(req)) {
                want = serve::encodeResultReply(
                    id, std::move(direct.value()), req.version);
                good = p == want;
            }
        } else {
            auto parsed = serve::parseReply(p);
            good = parsed && parsed.value().ok;
        }
        if (good) {
            ok[k] = 1;
            continue;
        }
        auto parsed = serve::parseReply(p);
        if (parsed && !parsed.value().ok) {
            ++receiver.error_replies;
            reportFailure(parsed.value().error_code + ": " +
                          parsed.value().error_message);
        } else {
            ++receiver.mismatches;
            reportFailure("reply differs from the direct answer\n  want " +
                          want + "\n  got  " + p);
        }
    }
    receiver_done.store(true, std::memory_order_release);
    send_thread.join();

    // Everything below reads both sides' private state, now joined.
    PhaseResult out = std::move(sender);
    out.mismatches = receiver.mismatches;
    out.error_replies = receiver.error_replies;
    out.transport_errors += receiver.transport_errors;
    out.decode_s = receiver.decode_s;
    out.traced = receiver.traced;
    // Open loop: every scheduled request was attempted, sent or not.
    out.attempted = spec.open_loop ? n : sent_count.load();
    std::vector<SpanLog::Span> request_spans;
    const std::uint32_t tid = 100 + static_cast<std::uint32_t>(conn_index);
    for (std::size_t k = 0; k < out.attempted; ++k) {
        const double start_s =
            spec.open_loop ? due_s[k]
                           : static_cast<double>(sent_ns[k]) * 1e-9;
        if (spec.open_loop && sent_ns[k] >= 0)
            out.late_s.push_back(static_cast<double>(sent_ns[k]) * 1e-9 -
                                 due_s[k]);
        if (recv_ns[k] < 0) {
            ++out.unanswered;
            out.latency_s.push_back(failed_latency);
            continue;
        }
        const double end_s = static_cast<double>(recv_ns[k]) * 1e-9;
        out.latency_s.push_back(ok[k] ? end_s - start_s : failed_latency);
        if (ok[k] && !spec.open_loop &&
            t0 + std::chrono::nanoseconds(recv_ns[k]) <= deadline)
            ++out.completed_in_window;
        if (spec.trace && spans) {
            const double base_us = spans->us(t0);
            const std::uint64_t rid = (conn_index + 1) << 48 | (id_base + k);
            const auto us = [&](std::int64_t ns) {
                return base_us + static_cast<double>(ns) * 1e-3;
            };
            request_spans.push_back({"request", "loadgen", tid,
                                     base_us + start_s * 1e6,
                                     (end_s - start_s) * 1e6, rid});
            request_spans.push_back({"encode", "serve", tid, us(enc_ns[k]),
                                     us(sent_ns[k]) - us(enc_ns[k]), rid});
            request_spans.push_back({"wait", "serve", tid, us(sent_ns[k]),
                                     us(recv_ns[k]) - us(sent_ns[k]), rid});
            request_spans.push_back(
                {"decode", "serve", tid, us(recv_ns[k]),
                 static_cast<double>(decode_ns[k]) * 1e-3, rid});
        }
    }
    for (double l : out.latency_s)
        out.failed += l == failed_latency ? 1 : 0;
    if (spans)
        spans->addAll(std::move(request_spans));
    if (until_deadline && out.attempted == n) {
        ++out.failed;
        reportFailure("closed-loop stream exhausted before the deadline");
    }
    return out;
}

} // namespace bench
} // namespace ramp
