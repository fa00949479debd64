/**
 * @file
 * The routing tier: ring placement stability and exclusion walks,
 * the health-state machine, the deterministic retry schedule, and
 * the router end-to-end over in-process backends -- routed replies
 * byte-identical to direct calls, failover off a dead backend,
 * structured no-backend replies when every replica is down, and the
 * router-answered inline verbs (hello, stats, shutdown,
 * cache_append rejection).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "route/router.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"

namespace ramp {
namespace route {
namespace {

// --- Ring -----------------------------------------------------------

TEST(HashRingTest, PlacementIsDeterministic)
{
    HashRing a(4), b(4);
    for (int k = 0; k < 64; ++k) {
        const std::string key = util::cat("key-", k);
        const auto pa = a.pick(key);
        const auto pb = b.pick(key);
        ASSERT_TRUE(pa.has_value());
        ASSERT_TRUE(pb.has_value());
        EXPECT_EQ(*pa, *pb);
        EXPECT_LT(*pa, 4u);
    }
}

TEST(HashRingTest, KeysSpreadAcrossAllBackends)
{
    HashRing ring(4);
    std::set<std::size_t> hit;
    for (int k = 0; k < 256; ++k)
        hit.insert(*ring.pick(util::cat("spread-", k)));
    EXPECT_EQ(hit.size(), 4u);
}

TEST(HashRingTest, ExclusionWalksToAnotherBackend)
{
    HashRing ring(4);
    for (int k = 0; k < 64; ++k) {
        const std::string key = util::cat("walk-", k);
        const std::size_t home = *ring.pick(key);
        const auto alt = ring.pick(
            key, [&](std::size_t b) { return b != home; });
        ASSERT_TRUE(alt.has_value());
        EXPECT_NE(*alt, home);
        // The walk is itself deterministic.
        EXPECT_EQ(*ring.pick(key, [&](std::size_t b) {
                      return b != home;
                  }),
                  *alt);
    }
}

TEST(HashRingTest, AllExcludedIsNulloptNotALoop)
{
    HashRing ring(3);
    EXPECT_FALSE(
        ring.pick("anything", [](std::size_t) { return false; })
            .has_value());
    EXPECT_FALSE(HashRing().pick("anything").has_value());
}

TEST(HashRingTest, LosingABackendOnlyRemapsItsOwnKeys)
{
    HashRing ring(4);
    for (int k = 0; k < 128; ++k) {
        const std::string key = util::cat("stable-", k);
        const std::size_t home = *ring.pick(key);
        const auto survivor = ring.pick(
            key, [](std::size_t b) { return b != 0; });
        ASSERT_TRUE(survivor.has_value());
        if (home != 0) {
            EXPECT_EQ(*survivor, home);
        }
    }
}

// --- Health ---------------------------------------------------------

TEST(HealthTableTest, SuspectStaysRoutableDownDoesNot)
{
    HealthTable table(2, /*fail_threshold=*/2);
    EXPECT_EQ(table.state(0), HealthState::Healthy);
    EXPECT_EQ(table.usableCount(), 2u);

    table.observeFailure(0);
    EXPECT_EQ(table.state(0), HealthState::Suspect);
    EXPECT_TRUE(table.usable(0)); // One failure is a blip.
    EXPECT_EQ(table.usableCount(), 2u);

    table.observeFailure(0);
    EXPECT_EQ(table.state(0), HealthState::Down);
    EXPECT_FALSE(table.usable(0));
    EXPECT_EQ(table.usableCount(), 1u);
    EXPECT_EQ(table.transitionsDown(), 1u);
}

TEST(HealthTableTest, SuccessSnapsBackToHealthy)
{
    HealthTable table(1, 2);
    table.observeFailure(0);
    table.observeFailure(0);
    ASSERT_EQ(table.state(0), HealthState::Down);

    table.observeSuccess(0);
    EXPECT_EQ(table.state(0), HealthState::Healthy);
    EXPECT_TRUE(table.usable(0));
    EXPECT_EQ(table.transitionsUp(), 1u);

    // The failure streak reset: Down needs a fresh streak.
    table.observeFailure(0);
    EXPECT_EQ(table.state(0), HealthState::Suspect);
}

TEST(HealthTableTest, RepeatedEvidenceDoesNotRecountTransitions)
{
    HealthTable table(1, 2);
    table.observeSuccess(0); // Healthy -> Healthy: no transition.
    EXPECT_EQ(table.transitionsUp(), 0u);
    table.observeFailure(0);
    table.observeFailure(0);
    table.observeFailure(0); // Down -> Down: no second transition.
    EXPECT_EQ(table.transitionsDown(), 1u);
}

TEST(HealthTableTest, JsonExportNamesStates)
{
    HealthTable table(2, 2);
    table.observeFailure(1);
    const util::JsonValue doc = table.toJson();
    ASSERT_EQ(doc.array.size(), 2u);
    EXPECT_EQ(doc.array[0].find("state")->str, "healthy");
    EXPECT_EQ(doc.array[1].find("state")->str, "suspect");
    EXPECT_EQ(doc.array[1].find("consecutive_failures")->number,
              1.0);
}

// --- Retry ----------------------------------------------------------

TEST(RetryPolicyTest, DelayIsDeterministicAndJitterBounded)
{
    RetryPolicy policy;
    policy.backoff_ms = 50;
    policy.seed = 42;
    for (int retry = 1; retry <= 4; ++retry) {
        const int base = 50 << (retry - 1);
        const int d1 = policy.delayMs(123, retry);
        const int d2 = policy.delayMs(123, retry);
        EXPECT_EQ(d1, d2); // Same (seed, key, retry) -> same delay.
        EXPECT_GE(d1, base / 2);
        EXPECT_LE(d1, base);
    }
    // Different keys jitter differently somewhere in the schedule.
    bool differs = false;
    for (int retry = 1; retry <= 6 && !differs; ++retry)
        differs = policy.delayMs(1, retry) != policy.delayMs(2, retry);
    EXPECT_TRUE(differs);
}

TEST(RetryPolicyTest, BackoffIsCappedNotUnbounded)
{
    RetryPolicy policy;
    policy.backoff_ms = 100;
    policy.backoff_max_ms = 400;
    for (int retry = 1; retry <= 30; ++retry) {
        const int d = policy.delayMs(7, retry);
        EXPECT_GE(d, 50);
        EXPECT_LE(d, 400);
    }
}

TEST(RetryPolicyTest, TransientClassification)
{
    EXPECT_TRUE(RetryPolicy::transient(util::ErrorCode::Timeout));
    EXPECT_TRUE(RetryPolicy::transient(util::ErrorCode::IoFailure));
    EXPECT_TRUE(RetryPolicy::transient(util::ErrorCode::Overloaded));
    EXPECT_TRUE(
        RetryPolicy::transient(util::ErrorCode::Unavailable));
    EXPECT_FALSE(
        RetryPolicy::transient(util::ErrorCode::InvalidInput));
    EXPECT_FALSE(
        RetryPolicy::transient(util::ErrorCode::NonConvergence));
    EXPECT_FALSE(
        RetryPolicy::transient(util::ErrorCode::CorruptRecord));
}

TEST(RetryPolicyTest, AttemptsIsRetriesPlusOne)
{
    RetryPolicy policy;
    policy.retries = 0;
    EXPECT_EQ(policy.attempts(), 1);
    policy.retries = 3;
    EXPECT_EQ(policy.attempts(), 4);
}

// --- Route keys -----------------------------------------------------

TEST(RouteKeyTest, ChipVerbsShardByChipOnly)
{
    serve::Request report;
    report.type = serve::RequestType::ReportUsage;
    report.chip = "chip-7";
    report.app = "appA";
    serve::Request remaining;
    remaining.type = serve::RequestType::RemainingLifetime;
    remaining.chip = "chip-7";
    remaining.app = "appB"; // Different app, same chip home.
    EXPECT_EQ(Router::routeKey(report), Router::routeKey(remaining));

    remaining.chip = "chip-8";
    EXPECT_NE(Router::routeKey(report),
              Router::routeKey(remaining));
}

TEST(RouteKeyTest, EvaluateShardsByPointSelectionsBySpace)
{
    serve::Request eval;
    eval.type = serve::RequestType::Evaluate;
    eval.app = "app";
    eval.space = drm::AdaptationSpace::Dvs;
    eval.config = 3;
    serve::Request eval2 = eval;
    eval2.config = 4;
    EXPECT_NE(Router::routeKey(eval), Router::routeKey(eval2));

    serve::Request sel;
    sel.type = serve::RequestType::SelectDrm;
    sel.app = "app";
    sel.space = drm::AdaptationSpace::Dvs;
    serve::Request sel2 = sel;
    sel2.type = serve::RequestType::SelectDtm;
    // Both selections of a space share a home (shared memo).
    EXPECT_EQ(Router::routeKey(sel), Router::routeKey(sel2));
}

// --- Router end-to-end ----------------------------------------------

class RouterTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        serve::ServiceOptions opts;
        opts.cache_path = "";
        opts.threads = 2;
        opts.max_apps = 1;
        opts.eval_params.warmup_uops = 40'000;
        opts.eval_params.measure_uops = 60'000;
        service_ =
            std::make_unique<serve::EvaluationService>(opts);
        service_->ensureReady();
        app_ = service_->apps()[0].name;
    }

    static void TearDownTestSuite() { service_.reset(); }

    /** Two in-process backends over the shared service plus a
     *  router fronting them. */
    struct Cluster
    {
        std::vector<std::unique_ptr<serve::Server>> backends;
        std::unique_ptr<Router> router;
    };

    static Cluster
    makeCluster(std::size_t n, RouterOptions opts = {})
    {
        Cluster cluster;
        for (std::size_t b = 0; b < n; ++b) {
            cluster.backends.push_back(
                std::make_unique<serve::Server>(
                    *service_, serve::ServerOptions{}));
            EXPECT_TRUE(cluster.backends.back()->start().ok());
            opts.backends.push_back(
                cluster.backends.back()->port());
        }
        cluster.router = std::make_unique<Router>(opts);
        EXPECT_TRUE(cluster.router->start().ok());
        return cluster;
    }

    static serve::Session
    openSession(const Router &router)
    {
        serve::ClientOptions opts;
        opts.port = router.port();
        auto session = serve::Session::open(opts);
        EXPECT_TRUE(session.ok()) << session.error().str();
        return std::move(session.value());
    }

    static std::string
    directEvaluate(std::size_t config)
    {
        serve::Request req;
        req.version = 2; // What a Session stamps after negotiation.
        req.type = serve::RequestType::Evaluate;
        req.app = app_;
        req.space = drm::AdaptationSpace::Dvs;
        req.config = config;
        auto op = service_->evaluatePoint(
            app_, drm::AdaptationSpace::Dvs, config);
        EXPECT_TRUE(op.ok()) << op.error().str();
        auto encoded = service_->encodeEvaluation(req, op.value());
        EXPECT_TRUE(encoded.ok());
        return util::writeJson(encoded.value());
    }

    static std::unique_ptr<serve::EvaluationService> service_;
    static std::string app_;
};

std::unique_ptr<serve::EvaluationService> RouterTest::service_;
std::string RouterTest::app_;

TEST_F(RouterTest, RoutedRepliesAreByteIdenticalToDirectPath)
{
    Cluster cluster = makeCluster(2);
    serve::Session session = openSession(*cluster.router);
    EXPECT_EQ(session.version(), serve::protocol_version_max);
    for (std::size_t config : {0u, 3u, 7u}) {
        auto routed = session.evaluate(
            app_, drm::AdaptationSpace::Dvs, config);
        ASSERT_TRUE(routed.ok()) << routed.error().str();
        EXPECT_EQ(util::writeJson(routed.value()),
                  directEvaluate(config));
    }
}

TEST_F(RouterTest, SameKeyAlwaysLandsOnItsShardHome)
{
    Cluster cluster = makeCluster(2);
    serve::Session session = openSession(*cluster.router);

    // Prime one point through the router, then hammer it: every
    // repeat must hit the same backend's cache (cache hits count on
    // exactly one backend).
    serve::Request probe;
    probe.type = serve::RequestType::Evaluate;
    probe.app = app_;
    probe.space = drm::AdaptationSpace::Dvs;
    probe.config = 1;
    const auto home =
        cluster.router->ring().pick(Router::routeKey(probe));
    ASSERT_TRUE(home.has_value());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(session
                        .evaluate(app_,
                                  drm::AdaptationSpace::Dvs, 1)
                        .ok());
    // The non-home backend never saw an evaluate: evaluates run
    // through its batcher, and its batch count stays zero (our own
    // stats probe here is answered inline).
    const std::size_t other = 1 - *home;
    serve::ClientOptions direct;
    direct.port = cluster.backends[other]->port();
    auto client = serve::Client::connect(direct);
    ASSERT_TRUE(client.ok());
    serve::Request stats_req;
    stats_req.type = serve::RequestType::Stats;
    auto stats =
        serve::Client::unwrap(client.value().call(stats_req));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(
        stats.value().find("server")->find("batches")->number,
        0.0);
}

TEST_F(RouterTest, FailoverReroutesOffADeadBackend)
{
    RouterOptions opts;
    opts.retry.retries = 2;
    opts.retry.backoff_ms = 10;
    opts.probe_interval_ms = 60'000; // Passive observation only.
    Cluster cluster = makeCluster(2, opts);

    // Kill the shard home of the point we are about to ask for.
    serve::Request probe;
    probe.type = serve::RequestType::Evaluate;
    probe.app = app_;
    probe.space = drm::AdaptationSpace::Dvs;
    probe.config = 2;
    const std::size_t home =
        *cluster.router->ring().pick(Router::routeKey(probe));
    cluster.backends[home]->stop();

    serve::Session session = openSession(*cluster.router);
    auto routed =
        session.evaluate(app_, drm::AdaptationSpace::Dvs, 2);
    ASSERT_TRUE(routed.ok()) << routed.error().str();
    EXPECT_EQ(util::writeJson(routed.value()), directEvaluate(2));
    EXPECT_GE(cluster.router->health().transitionsDown(), 0u);
    EXPECT_NE(cluster.router->health().state(home),
              HealthState::Healthy);
}

TEST_F(RouterTest, AllBackendsDownIsAStructuredNoBackendReply)
{
    RouterOptions opts;
    opts.retry.retries = 1;
    opts.retry.backoff_ms = 5;
    opts.probe_interval_ms = 60'000;
    opts.connect_timeout_ms = 200;
    Cluster cluster = makeCluster(2, opts);
    for (auto &backend : cluster.backends)
        backend->stop();

    // Hello is answered by the router itself, so the session opens
    // even with every backend dead...
    serve::Session session = openSession(*cluster.router);
    // ...but forwarded work gets the structured no-backend error,
    // not a hang or a silent close.
    auto routed =
        session.evaluate(app_, drm::AdaptationSpace::Dvs, 0);
    ASSERT_FALSE(routed.ok());
    EXPECT_EQ(routed.error().code, util::ErrorCode::Unavailable);
    EXPECT_NE(routed.error().message.find(serve::err_no_backend),
              std::string::npos)
        << routed.error().str();
}

TEST_F(RouterTest, StatsAreAnsweredByTheRouterItself)
{
    Cluster cluster = makeCluster(2);
    serve::Session session = openSession(*cluster.router);
    auto stats = session.stats();
    ASSERT_TRUE(stats.ok()) << stats.error().str();
    const util::JsonValue *router_flag =
        stats.value().find("router");
    ASSERT_NE(router_flag, nullptr);
    EXPECT_TRUE(router_flag->boolean);
    EXPECT_EQ(stats.value().find("backends_total")->number, 2.0);
    ASSERT_NE(stats.value().find("backends"), nullptr);
    EXPECT_EQ(stats.value().find("backends")->array.size(), 2u);
}

/** The member names of a JSON object, in wire order. */
std::vector<std::string>
keysOf(const util::JsonValue &obj)
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : obj.object)
        keys.push_back(key);
    return keys;
}

TEST_F(RouterTest, StatsKeysArePinnedAndCountsArePerInstance)
{
    // Two backends in one process (the routed bench's shape) share
    // every metric name, yet each stats reply counts its own
    // traffic. No router here: its probes would add requests.
    serve::Server a(*service_, serve::ServerOptions{});
    serve::Server b(*service_, serve::ServerOptions{});
    ASSERT_TRUE(a.start().ok());
    ASSERT_TRUE(b.start().ok());
    serve::Request stats_req;
    stats_req.type = serve::RequestType::Stats;
    const auto statsOf = [&](std::uint16_t port, int calls) {
        serve::ClientOptions opts;
        opts.port = port;
        auto client = serve::Client::connect(opts);
        EXPECT_TRUE(client.ok());
        util::Result<util::JsonValue> stats =
            util::RampError{util::ErrorCode::IoFailure, "no call"};
        for (int i = 0; i < calls && client.ok(); ++i)
            stats = serve::Client::unwrap(client.value().call(stats_req));
        EXPECT_TRUE(stats.ok());
        return stats.ok() ? stats.value() : util::JsonValue{};
    };
    const util::JsonValue stats_a = statsOf(a.port(), 3);
    const util::JsonValue stats_b = statsOf(b.port(), 1);
    const util::JsonValue *server_a = stats_a.find("server");
    const util::JsonValue *server_b = stats_b.find("server");
    ASSERT_NE(server_a, nullptr);
    ASSERT_NE(server_b, nullptr);
    EXPECT_EQ(keysOf(*server_a),
              (std::vector<std::string>{
                  "requests", "batches", "rejected", "bad_requests",
                  "coalesced", "connections", "hellos",
                  "usage_reports", "cache_appends", "queue_depth",
                  "draining"}));
    // A stats reply is built after its own request is counted.
    EXPECT_EQ(server_a->find("requests")->number, 3.0);
    EXPECT_EQ(server_b->find("requests")->number, 1.0);
    EXPECT_EQ(server_a->find("connections")->number, 1.0);
    EXPECT_EQ(server_b->find("connections")->number, 1.0);

    Cluster cluster = makeCluster(2);
    const util::JsonValue routed = statsOf(cluster.router->port(), 1);
    EXPECT_EQ(keysOf(routed),
              (std::vector<std::string>{
                  "router", "backends_total", "backends_usable",
                  "connections", "requests", "forwarded", "retries",
                  "failovers", "no_backend", "bad_requests", "probes",
                  "probe_failures", "health_up", "health_down",
                  "backends", "draining"}));
    EXPECT_EQ(routed.find("requests")->number, 1.0);
}

TEST_F(RouterTest, CacheAppendFromAClientIsRejected)
{
    Cluster cluster = makeCluster(2);
    serve::ClientOptions opts;
    opts.port = cluster.router->port();
    auto client = serve::Client::connect(opts);
    ASSERT_TRUE(client.ok());

    serve::Request req;
    req.version = 2;
    req.type = serve::RequestType::CacheAppend;
    req.key = "k";
    req.record = "k v";
    auto reply = client.value().call(std::move(req));
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    ASSERT_FALSE(reply.value().ok);
    EXPECT_EQ(reply.value().error_code, serve::err_bad_request);
}

TEST_F(RouterTest, ShutdownDrainsTheRouterAndRejectsNewWork)
{
    Cluster cluster = makeCluster(2);
    serve::Session admin = openSession(*cluster.router);
    ASSERT_TRUE(admin.requestShutdown().ok());
    EXPECT_TRUE(cluster.router->draining());

    // New work is refused: either the structured drain code
    // (Unavailable via err_shutting_down) or -- the reader having
    // already hung up -- a closed connection. Never an answer.
    auto late =
        admin.evaluate(app_, drm::AdaptationSpace::Dvs, 0);
    ASSERT_FALSE(late.ok())
        << "drained router accepted new work";
    EXPECT_TRUE(late.error().code == util::ErrorCode::Unavailable ||
                late.error().code == util::ErrorCode::IoFailure)
        << late.error().str();
    cluster.router->wait();
}

TEST_F(RouterTest, ProbesRecoverARestartedBackend)
{
    RouterOptions opts;
    opts.probe_interval_ms = 50;
    opts.fail_threshold = 1; // One failed probe downs it.
    Cluster cluster = makeCluster(2, opts);

    const std::uint16_t port = cluster.backends[1]->port();
    cluster.backends[1]->stop();
    // The probe thread must mark it Down...
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (cluster.router->health().state(1) != HealthState::Down &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    ASSERT_EQ(cluster.router->health().state(1),
              HealthState::Down);

    // ...and bring it back once a daemon answers there again.
    serve::ServerOptions bopts;
    bopts.port = port;
    cluster.backends[1] = std::make_unique<serve::Server>(
        *service_, bopts);
    ASSERT_TRUE(cluster.backends[1]->start().ok());
    while (cluster.router->health().state(1) !=
               HealthState::Healthy &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    EXPECT_EQ(cluster.router->health().state(1),
              HealthState::Healthy);
    EXPECT_GE(cluster.router->health().transitionsUp(), 1u);
    EXPECT_GE(cluster.router->health().transitionsDown(), 1u);
}

} // namespace
} // namespace route
} // namespace ramp
