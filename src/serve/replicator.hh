/**
 * @file
 * Eval-cache replication between ramp_served peers.
 *
 * Each backend in a routed cluster owns a private evaluation-cache
 * log (its own --cache path). The Replicator keeps the peers' caches
 * converged: every local cache append is tailed through
 * EvaluationCache::setAppendObserver() into a bounded per-peer queue
 * and pushed to that peer as a v2 cache_append request. Records are
 * idempotent by key on the receiving side (putSerialized), so the
 * stream needs no exactly-once machinery -- re-sending is always
 * safe, and the recovery story leans on that:
 *
 *  - On every (re)connect to a peer the full cache snapshot
 *    (exportRecords) is replayed before the live tail. A peer that
 *    restarted empty re-warms from the first peer that reconnects.
 *  - A send failure, or a tail queue overflowing its bound, simply
 *    flags the peer for another full resync; the queue is discarded
 *    because the snapshot supersedes it.
 *
 * Reconnects back off exponentially between reconnect_min_ms and
 * reconnect_max_ms so a dead peer costs a bounded trickle of connect
 * attempts, not a spin. stop() detaches the observer first, then
 * joins the per-peer threads; it is safe to call repeatedly.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "drm/eval_cache.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace serve {

/** Replication knobs. */
struct ReplicatorOptions
{
    /** Peer ramp_served ports (loopback). */
    std::vector<std::uint16_t> peers;
    int connect_timeout_ms = 1'000;
    /** Deadline for one cache_append round trip. */
    int io_timeout_ms = 5'000;
    /** Reconnect backoff bounds (doubling between them). */
    int reconnect_min_ms = 50;
    int reconnect_max_ms = 2'000;
    /** Per-peer live-tail bound; overflow forces a full resync. */
    std::size_t queue_cap = 4'096;
};

/** Streams one cache's appends to every peer backend. */
class Replicator
{
  public:
    /** @param cache The local cache; must outlive the replicator. */
    Replicator(drm::EvaluationCache &cache, ReplicatorOptions opts);

    /** stop()s if still running. */
    ~Replicator();

    Replicator(const Replicator &) = delete;
    Replicator &operator=(const Replicator &) = delete;

    /** Install the append observer and spawn one thread per peer. */
    void start();

    /** Detach the observer and join the peer threads (idempotent). */
    void stop();

    /** Replication counters (tests): sent, resyncs, reconnects,
     *  rejected. */
    util::JsonValue statsJson() const;

  private:
    /** One peer's connection state and pending tail. */
    struct Peer
    {
        std::uint16_t port = 0;
        std::thread thread;
        std::mutex mu;
        std::condition_variable cv;
        /** Pending (key, record-line) appends. */
        // ramp-lint: guarded_by(mu)
        std::deque<std::pair<std::string, std::string>> queue;
        /** Replay the full snapshot before tailing (set on start,
         *  after a send failure, and on queue overflow). */
        // ramp-lint: guarded_by(mu)
        bool resync = true;
    };

    void peerLoop(Peer &peer);
    void onAppend(const std::string &key, const std::string &line);

    /** One cache_append round trip; false = transport failure (the
     *  caller reconnects and resyncs). */
    bool sendRecord(class Client &client, const std::string &key,
                    const std::string &line);

    drm::EvaluationCache &cache_;
    ReplicatorOptions opts_;
    std::vector<std::unique_ptr<Peer>> peers_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};

    telemetry::Tally sent_{telemetry::counter("server.repl_sent")};
    telemetry::Tally resyncs_{
        telemetry::counter("server.repl_resyncs")};
    telemetry::Tally reconnects_{
        telemetry::counter("server.repl_reconnects")};
    telemetry::Tally rejected_{
        telemetry::counter("server.repl_rejected")};
};

} // namespace serve
} // namespace ramp
