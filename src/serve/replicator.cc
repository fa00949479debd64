#include "serve/replicator.hh"

#include <algorithm>
#include <chrono>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "util/logging.hh"

namespace ramp {
namespace serve {

using util::JsonValue;

Replicator::Replicator(drm::EvaluationCache &cache,
                       ReplicatorOptions opts)
    : cache_(cache), opts_(std::move(opts))
{
    for (std::uint16_t port : opts_.peers) {
        auto peer = std::make_unique<Peer>();
        peer->port = port;
        peers_.push_back(std::move(peer));
    }
}

Replicator::~Replicator()
{
    stop();
}

void
Replicator::start()
{
    if (started_.exchange(true))
        return;
    cache_.setAppendObserver(
        [this](const std::string &key, const std::string &line) {
            onAppend(key, line);
        });
    for (auto &peer : peers_)
        peer->thread =
            std::thread([this, p = peer.get()] { peerLoop(*p); });
}

void
Replicator::stop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    // Detach the observer before waking the threads so no new work
    // arrives while they unwind.
    cache_.setAppendObserver(nullptr);
    stopping_.store(true, std::memory_order_release);
    for (auto &peer : peers_) {
        {
            std::lock_guard<std::mutex> lk(peer->mu);
        }
        peer->cv.notify_all();
    }
    for (auto &peer : peers_)
        if (peer->thread.joinable())
            peer->thread.join();
    started_.store(false, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
}

void
Replicator::onAppend(const std::string &key, const std::string &line)
{
    for (auto &peer : peers_) {
        std::lock_guard<std::mutex> lk(peer->mu);
        if (peer->resync)
            continue; // The pending snapshot replay covers this put.
        if (peer->queue.size() >= opts_.queue_cap) {
            // The tail fell too far behind; drop it and let the
            // snapshot replay supersede it.
            peer->queue.clear();
            peer->resync = true;
            resyncs_.add();
        } else {
            peer->queue.emplace_back(key, line);
        }
        peer->cv.notify_one();
    }
}

bool
Replicator::sendRecord(Client &client, const std::string &key,
                       const std::string &line)
{
    Request req;
    req.version = 2;
    req.type = RequestType::CacheAppend;
    req.key = key;
    req.record = line;
    auto reply = client.call(std::move(req));
    if (!reply)
        return false; // Transport failure: reconnect + resync.
    sent_.add();
    if (!reply.value().ok) {
        // The peer rejected the record (malformed / stale): that is
        // a local problem, not a connection problem -- count it and
        // keep the stream alive.
        rejected_.add();
    }
    return true;
}

void
Replicator::peerLoop(Peer &peer)
{
    int backoff_ms = opts_.reconnect_min_ms;
    while (!stopping_.load(std::memory_order_acquire)) {
        ClientOptions copts;
        copts.port = peer.port;
        copts.connect_timeout_ms = opts_.connect_timeout_ms;
        copts.io_timeout_ms = opts_.io_timeout_ms;
        auto client = Client::connect(copts);
        if (!client) {
            reconnects_.add();
            std::unique_lock<std::mutex> lk(peer.mu);
            peer.cv.wait_for(
                lk, std::chrono::milliseconds(backoff_ms), [this] {
                    return stopping_.load(std::memory_order_acquire);
                });
            backoff_ms = std::min(backoff_ms * 2,
                                  opts_.reconnect_max_ms);
            continue;
        }
        backoff_ms = opts_.reconnect_min_ms;

        // Fresh connection: replay the whole snapshot first if this
        // peer is flagged for a resync. Idempotent receive makes the
        // replay safe even when most records are already there.
        bool need_snapshot;
        {
            std::lock_guard<std::mutex> lk(peer.mu);
            need_snapshot = peer.resync;
        }
        if (need_snapshot) {
            bool ok = true;
            for (const auto &[key, line] : cache_.exportRecords()) {
                if (stopping_.load(std::memory_order_acquire))
                    return;
                if (!sendRecord(client.value(), key, line)) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                continue; // Reconnect; resync stays set.
            std::lock_guard<std::mutex> lk(peer.mu);
            peer.resync = false;
        }

        // Live tail: drain the queue one record at a time so a
        // failure mid-stream loses nothing (the failed record is
        // re-covered by the resync snapshot).
        bool connected = true;
        while (connected &&
               !stopping_.load(std::memory_order_acquire)) {
            std::pair<std::string, std::string> item;
            {
                std::unique_lock<std::mutex> lk(peer.mu);
                peer.cv.wait(lk, [this, &peer] {
                    return stopping_.load(
                               std::memory_order_acquire) ||
                           !peer.queue.empty() || peer.resync;
                });
                if (stopping_.load(std::memory_order_acquire))
                    return;
                if (peer.resync)
                    break; // Overflow flagged a snapshot replay.
                item = std::move(peer.queue.front());
                peer.queue.pop_front();
            }
            if (!sendRecord(client.value(), item.first,
                            item.second)) {
                std::lock_guard<std::mutex> lk(peer.mu);
                peer.queue.clear();
                peer.resync = true;
                resyncs_.add();
                reconnects_.add();
                connected = false;
            }
        }
    }
}

JsonValue
Replicator::statsJson() const
{
    const auto num = [](double v) { return JsonValue::makeNumber(v); };
    JsonValue out = JsonValue::makeObject();
    out.set("peers", num(static_cast<double>(peers_.size())));
    out.set("sent", num(static_cast<double>(sent_.value())));
    out.set("resyncs", num(static_cast<double>(resyncs_.value())));
    out.set("reconnects",
            num(static_cast<double>(reconnects_.value())));
    out.set("rejected", num(static_cast<double>(rejected_.value())));
    return out;
}

} // namespace serve
} // namespace ramp
