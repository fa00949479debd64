/**
 * @file
 * Eval-cache replication: the serialized-record ingest path
 * (idempotency, mislabelled-record rejection, observer echo rules),
 * snapshot export, and the Replicator end-to-end -- records put on
 * one node arrive on a peer daemon via cache_append, both the
 * pre-start snapshot resync and the live tail.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "drm/eval_cache.hh"
#include "serve/replicator.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace ramp {
namespace serve {
namespace {

drm::CachedEvaluation
sampleRecord(double tag)
{
    drm::CachedEvaluation v;
    v.l1d_miss_ratio = tag;
    v.l2_miss_ratio = tag / 2.0;
    return v;
}

/** put() one record and capture the serialized line the observer
 *  hands the replicator. */
std::string
captureLine(drm::EvaluationCache &cache, const std::string &key,
            double tag)
{
    std::string line;
    cache.setAppendObserver(
        [&](const std::string &, const std::string &l) {
            line = l;
        });
    cache.put(key, sampleRecord(tag));
    cache.setAppendObserver(nullptr);
    EXPECT_FALSE(line.empty());
    return line;
}

TEST(CacheReplicationTest, PutSerializedIsIdempotentByKey)
{
    drm::EvaluationCache source("");
    const std::string line = captureLine(source, "k1", 0.25);

    drm::EvaluationCache sink("");
    EXPECT_TRUE(sink.putSerialized("k1", line));
    EXPECT_EQ(sink.size(), 1u);
    // A replayed snapshot or an echoed record applies nothing.
    EXPECT_FALSE(sink.putSerialized("k1", line));
    EXPECT_EQ(sink.size(), 1u);
}

TEST(CacheReplicationTest, MislabelledAndMalformedRecordsRejected)
{
    drm::EvaluationCache source("");
    const std::string line = captureLine(source, "k1", 0.25);

    drm::EvaluationCache sink("");
    // The advertised key must match the line's own key.
    EXPECT_FALSE(sink.putSerialized("other-key", line));
    EXPECT_FALSE(sink.putSerialized("k1", "not a record line"));
    EXPECT_EQ(sink.size(), 0u);
}

TEST(CacheReplicationTest, IngestNeverFiresTheObserver)
{
    drm::EvaluationCache source("");
    const std::string line = captureLine(source, "k1", 0.5);

    drm::EvaluationCache sink("");
    int fired = 0;
    sink.setAppendObserver(
        [&](const std::string &, const std::string &) {
            ++fired;
        });
    ASSERT_TRUE(sink.putSerialized("k1", line));
    EXPECT_EQ(fired, 0); // No echo loop: ingest is silent.
    sink.put("k2", sampleRecord(0.75));
    EXPECT_EQ(fired, 1); // Local puts still replicate out.
}

TEST(CacheReplicationTest, ExportRecordsRoundTripsThroughIngest)
{
    drm::EvaluationCache source("");
    source.put("a", sampleRecord(0.1));
    source.put("b", sampleRecord(0.2));
    source.put("c", sampleRecord(0.3));

    const auto snapshot = source.exportRecords();
    ASSERT_EQ(snapshot.size(), 3u);

    drm::EvaluationCache sink("");
    for (const auto &[key, line] : snapshot)
        EXPECT_TRUE(sink.putSerialized(key, line));
    EXPECT_EQ(sink.size(), 3u);
    for (const char *key : {"a", "b", "c"})
        EXPECT_TRUE(sink.get(key).has_value());
}

/** Spin until @p cache holds @p n records (or a deadline). */
bool
waitForRecords(drm::EvaluationCache &cache, std::size_t n,
               int timeout_ms = 15'000)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cache.size() >= n)
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    return cache.size() >= n;
}

TEST(ReplicatorTest, SnapshotResyncThenLiveTailReachThePeer)
{
    // The receiving daemon: a real Server whose service runs an
    // in-memory cache (cache_append is answered inline,
    // so the engine never needs to warm).
    ServiceOptions sink_opts;
    sink_opts.cache_path = "";
    sink_opts.max_apps = 1;
    EvaluationService sink(sink_opts);
    Server server(sink, ServerOptions{});
    ASSERT_TRUE(server.start().ok());

    // The sending node's cache, with records that predate the
    // replicator: start() must push them as the initial snapshot.
    drm::EvaluationCache source("");
    source.put("pre-1", sampleRecord(0.1));
    source.put("pre-2", sampleRecord(0.2));

    ReplicatorOptions ropts;
    ropts.peers = {server.port()};
    Replicator replicator(source, ropts);
    replicator.start();
    EXPECT_TRUE(waitForRecords(sink.cache(), 2))
        << "snapshot resync never arrived";

    // Live tail: a post-start put flows through the observer.
    source.put("live-1", sampleRecord(0.3));
    EXPECT_TRUE(waitForRecords(sink.cache(), 3))
        << "live append never arrived";
    EXPECT_TRUE(sink.cache().get("pre-1").has_value());
    EXPECT_TRUE(sink.cache().get("live-1").has_value());

    replicator.stop();
    server.stop();
}

TEST(ReplicatorTest, PeerOutageTriggersResyncOnReconnect)
{
    ServiceOptions sink_opts;
    sink_opts.cache_path = "";
    sink_opts.max_apps = 1;

    drm::EvaluationCache source("");
    source.put("a", sampleRecord(0.1));

    // Reserve the peer's port, then shut the daemon down before the
    // replicator starts: every record lands while the peer is gone.
    std::uint16_t port = 0;
    {
        EvaluationService sink(sink_opts);
        Server server(sink, ServerOptions{});
        ASSERT_TRUE(server.start().ok());
        port = server.port();
        server.stop();
    }

    ReplicatorOptions ropts;
    ropts.peers = {port};
    ropts.reconnect_min_ms = 20;
    ropts.reconnect_max_ms = 100;
    Replicator replicator(source, ropts);
    replicator.start();
    source.put("b", sampleRecord(0.2));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // The daemon comes back on the same port; the replicator's
    // reconnect must replay the *full* snapshot, not just whatever
    // survived its queue.
    EvaluationService sink(sink_opts);
    ServerOptions bopts;
    bopts.port = port;
    Server server(sink, bopts);
    ASSERT_TRUE(server.start().ok());
    EXPECT_TRUE(waitForRecords(sink.cache(), 2))
        << "reconnect resync never arrived";
    EXPECT_TRUE(sink.cache().get("a").has_value());
    EXPECT_TRUE(sink.cache().get("b").has_value());

    replicator.stop();
    server.stop();
}

} // namespace
} // namespace serve
} // namespace ramp
