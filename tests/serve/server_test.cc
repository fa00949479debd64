/**
 * @file
 * In-process server tests: served replies are byte-identical to the
 * direct evaluation path, errors travel structurally, admission
 * control rejects explicitly, drain semantics hold, and the
 * conn-drop/conn-slow fault kinds exercise the failure paths
 * deterministically.
 *
 * One shared EvaluationService (tiny simulation lengths, one app,
 * in-memory cache) backs every test; each test starts its own Server
 * over it, which is cheap.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aging/state.hh"
#include "fault/fault.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/net.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace serve {
namespace {

class ServerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ServiceOptions opts;
        opts.cache_path = ""; // In-memory; tests must not share
                              // records with the repo cache.
        opts.threads = 2;
        opts.max_apps = 1;
        opts.eval_params.warmup_uops = 40'000;
        opts.eval_params.measure_uops = 60'000;
        service_ = std::make_unique<EvaluationService>(opts);
        service_->ensureReady();
        app_ = service_->apps()[0].name;
    }

    static void TearDownTestSuite() { service_.reset(); }

    void TearDown() override { fault::clearFaultPlan(); }

    /** A v0 evaluate of @p app over DVS. */
    static Request
    evaluateRequest(const std::string &app, std::size_t config)
    {
        Request req;
        req.type = RequestType::Evaluate;
        req.app = app;
        req.space = drm::AdaptationSpace::Dvs;
        req.config = config;
        return req;
    }

    /** A v0 request carrying only its type (stats, shutdown). */
    static Request
    bareRequest(RequestType type)
    {
        Request req;
        req.type = type;
        return req;
    }

    /** The direct-path answer for an evaluate, serialized. */
    static std::string
    directEvaluate(std::size_t config)
    {
        Request req;
        req.type = RequestType::Evaluate;
        req.app = app_;
        req.space = drm::AdaptationSpace::Dvs;
        req.config = config;
        auto op = service_->evaluatePoint(
            app_, drm::AdaptationSpace::Dvs, config);
        EXPECT_TRUE(op.ok()) << op.error().str();
        auto encoded =
            service_->encodeEvaluation(req, op.value());
        EXPECT_TRUE(encoded.ok());
        return util::writeJson(encoded.value());
    }

    static Client
    connectTo(const Server &server, int io_timeout_ms = 30'000)
    {
        ClientOptions opts;
        opts.port = server.port();
        opts.io_timeout_ms = io_timeout_ms;
        auto client = Client::connect(opts);
        EXPECT_TRUE(client.ok()) << client.error().str();
        return std::move(client.value());
    }

    static std::unique_ptr<EvaluationService> service_;
    static std::string app_;
};

std::unique_ptr<EvaluationService> ServerTest::service_;
std::string ServerTest::app_;

TEST_F(ServerTest, EvaluateIsByteIdenticalToDirectPath)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);
    for (std::size_t config : {0u, 3u, 7u}) {
        auto served =
            Client::unwrap(client.call(evaluateRequest(app_, config)));
        ASSERT_TRUE(served.ok()) << served.error().str();
        EXPECT_EQ(util::writeJson(served.value()),
                  directEvaluate(config));
    }
}

TEST_F(ServerTest, SelectionsMatchDirectPath)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    Request drm_req;
    drm_req.type = RequestType::SelectDrm;
    drm_req.app = app_;
    drm_req.space = drm::AdaptationSpace::Dvs;
    Request dtm_req;
    dtm_req.type = RequestType::SelectDtm;
    dtm_req.app = app_;
    dtm_req.space = drm::AdaptationSpace::Dvs;
    dtm_req.t_design_k = 370.0;

    auto served_drm = Client::unwrap(client.call(drm_req));
    ASSERT_TRUE(served_drm.ok()) << served_drm.error().str();
    auto served_dtm = Client::unwrap(client.call(dtm_req));
    ASSERT_TRUE(served_dtm.ok()) << served_dtm.error().str();

    // Stop the server so the batcher (the driver thread) is gone
    // before select() runs on this thread.
    server.stop();

    auto direct_drm = service_->select(drm_req);
    ASSERT_TRUE(direct_drm.ok());
    EXPECT_EQ(util::writeJson(served_drm.value()),
              util::writeJson(direct_drm.value()));

    auto direct_dtm = service_->select(dtm_req);
    ASSERT_TRUE(direct_dtm.ok());
    EXPECT_EQ(util::writeJson(served_dtm.value()),
              util::writeJson(direct_dtm.value()));
}

TEST_F(ServerTest, RetiredSurrogateFieldLeavesRepliesByteIdentical)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    auto sock = util::connectTcp(server.port(), 2'000);
    ASSERT_TRUE(sock.ok());
    // One raw request frame out, its raw reply frame back.
    const auto roundTrip = [&](const std::string &payload) {
        EXPECT_TRUE(util::writeFrame(sock.value(), payload,
                                     default_max_frame, 1'000)
                        .ok());
        auto frame =
            util::readFrame(sock.value(), default_max_frame, 30'000);
        EXPECT_TRUE(frame.ok() && frame.value().has_value());
        const std::string reply =
            frame.ok() && frame.value() ? *frame.value() : "";
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos)
            << payload << " -> " << reply;
        return reply;
    };

    aging::AgingState used;
    used.age_hours = 8760.0;
    used.damage[0][0] = 0.01;
    roundTrip("{\"id\":1,\"v\":2,\"type\":\"report_usage\","
              "\"chip\":\"surrogate-chip\",\"state\":" +
              util::writeJson(aging::toJson(used)) + "}");

    const std::string app = "\"app\":\"" + app_ + "\"";
    for (const std::string &body :
         {"\"type\":\"select_drm\",\"space\":\"DVS\"," + app,
          "\"type\":\"select_dtm\",\"space\":\"DVS\"," + app,
          "\"v\":2,\"type\":\"remaining_lifetime\","
          "\"chip\":\"surrogate-chip\",\"space\":\"DVS\"," +
              app}) {
        const std::string want = roundTrip("{\"id\":2," + body + "}");
        for (const char *mode : {"rank", "auto"})
            EXPECT_EQ(roundTrip("{\"id\":2," + body +
                                ",\"surrogate\":\"" + mode + "\"}"),
                      want)
                << body << " surrogate=" << mode;
    }
}

TEST_F(ServerTest, TQualAtOrBelowAmbientIsInvalidInputNotFatal)
{
    // A T_qual that does not exceed the qualification ambient cannot
    // be qualified at; every verb that takes one answers so, and the
    // daemon keeps serving.
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    // Damage far over budget, so the slack bank throttles T_qual by
    // its full 25 K.
    aging::AgingState overspent;
    overspent.age_hours = 1.0;
    for (auto &pair : overspent.damage)
        pair.fill(0.2);
    Request usage;
    usage.version = 2;
    usage.type = RequestType::ReportUsage;
    usage.chip = "overspent";
    usage.state = aging::toJson(overspent);
    ASSERT_TRUE(Client::unwrap(client.call(usage)).ok());

    Request drm_req;
    drm_req.type = RequestType::SelectDrm;
    drm_req.app = app_;
    drm_req.space = drm::AdaptationSpace::Dvs;
    Request dtm_req = drm_req;
    dtm_req.type = RequestType::SelectDtm;
    Request chip_req;
    chip_req.version = 3;
    chip_req.type = RequestType::SelectChip;
    chip_req.core_apps = {app_, app_};
    chip_req.space = drm::AdaptationSpace::Dvs;
    Request life_req = drm_req;
    life_req.version = 2;
    life_req.type = RequestType::RemainingLifetime;
    life_req.chip = "overspent";

    const auto expectRejected = [&](Request req, const char *named) {
        auto reply = Client::unwrap(client.call(req));
        ASSERT_FALSE(reply.ok()) << requestTypeName(req.type);
        EXPECT_EQ(reply.error().code, util::ErrorCode::InvalidInput);
        const std::string &msg = reply.error().message;
        EXPECT_NE(msg.find(named), std::string::npos) << msg;
        EXPECT_NE(msg.find("must exceed the qualification ambient "
                           "(300 K)"),
                  std::string::npos)
            << msg;
    };
    for (Request req :
         {evaluateRequest(app_, 0), drm_req, dtm_req, chip_req, life_req}) {
        req.t_qual_k = 250.0;
        expectRejected(req, "t_qual_k (250 K)");
    }
    // A valid base that the throttle takes below ambient.
    life_req.t_qual_k = 320.0;
    expectRejected(life_req, "throttled effective t_qual_k");

    Client again = connectTo(server);
    auto stats =
        Client::unwrap(again.call(bareRequest(RequestType::Stats)));
    EXPECT_TRUE(stats.ok()) << stats.error().str();
}

TEST_F(ServerTest, PipelinedIdenticalRequestsAllAnswered)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    const std::string want = directEvaluate(2);
    constexpr std::size_t n = 16;
    for (std::size_t i = 0; i < n; ++i) {
        Request req;
        req.type = RequestType::Evaluate;
        req.app = app_;
        req.space = drm::AdaptationSpace::Dvs;
        req.config = 2;
        ASSERT_TRUE(client.sendRequest(std::move(req)).ok());
    }
    for (std::size_t i = 0; i < n; ++i) {
        auto reply = client.receiveReply();
        ASSERT_TRUE(reply.ok()) << reply.error().str();
        ASSERT_TRUE(reply.value().ok)
            << reply.value().error_message;
        EXPECT_EQ(util::writeJson(reply.value().result), want);
    }
}

TEST_F(ServerTest, UnknownAppIsAStructuredErrorNotAHangup)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    auto bad = Client::unwrap(
        client.call(evaluateRequest("no-such-app", 0)));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, util::ErrorCode::InvalidInput);

    // The connection survives a request-level error.
    auto good = Client::unwrap(client.call(evaluateRequest(app_, 0)));
    EXPECT_TRUE(good.ok()) << good.error().str();
}

TEST_F(ServerTest, MalformedPayloadGetsBadRequestAndConnectionLives)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());

    auto sock = util::connectTcp(server.port(), 2'000);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(util::writeFrame(sock.value(), "not json at all",
                                 default_max_frame, 1'000)
                    .ok());
    auto frame =
        util::readFrame(sock.value(), default_max_frame, 30'000);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    ASSERT_TRUE(frame.value().has_value());
    auto reply = parseReply(*frame.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply.value().ok);
    EXPECT_EQ(reply.value().error_code, err_bad_request);

    // Same connection, now a well-formed request.
    Request req;
    req.id = 5;
    req.type = RequestType::Stats;
    ASSERT_TRUE(util::writeFrame(sock.value(), encodeRequest(req),
                                 default_max_frame, 1'000)
                    .ok());
    auto frame2 =
        util::readFrame(sock.value(), default_max_frame, 30'000);
    ASSERT_TRUE(frame2.ok());
    ASSERT_TRUE(frame2.value().has_value());
    auto reply2 = parseReply(*frame2.value());
    ASSERT_TRUE(reply2.ok());
    EXPECT_TRUE(reply2.value().ok);
    EXPECT_EQ(reply2.value().id, 5u);
}

TEST_F(ServerTest, HugeWireIntegersAreBadRequestsNotCasts)
{
    // Integers past 2^53 used to be cast straight to uint64, which is
    // undefined once they exceed its range.
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    auto sock = util::connectTcp(server.port(), 2'000);
    ASSERT_TRUE(sock.ok());
    const auto exchange = [&](const std::string &payload) {
        EXPECT_TRUE(util::writeFrame(sock.value(), payload,
                                     default_max_frame, 1'000)
                        .ok());
        auto frame =
            util::readFrame(sock.value(), default_max_frame, 30'000);
        EXPECT_TRUE(frame.ok() && frame.value().has_value());
        auto reply = parseReply(frame.ok() && frame.value()
                                    ? *frame.value()
                                    : std::string{});
        EXPECT_TRUE(reply.ok());
        return reply.ok() ? reply.value() : Reply{};
    };

    const Reply huge_id = exchange("{\"id\":1e30,\"type\":\"stats\"}");
    EXPECT_FALSE(huge_id.ok);
    EXPECT_EQ(huge_id.error_code, err_bad_request);
    EXPECT_EQ(huge_id.id, 0u);

    const Reply huge_config = exchange(
        "{\"id\":2,\"type\":\"evaluate\",\"app\":\"" + app_ +
        "\",\"space\":\"DVS\",\"config\":1e300}");
    EXPECT_FALSE(huge_config.ok);
    EXPECT_EQ(huge_config.error_code, err_bad_request);
    EXPECT_EQ(huge_config.id, 2u);

    // The connection still serves.
    const Reply stats = exchange("{\"id\":3,\"type\":\"stats\"}");
    EXPECT_TRUE(stats.ok);
    EXPECT_EQ(stats.id, 3u);
}

TEST_F(ServerTest, OversizedFrameIsRejectedThenDisconnected)
{
    ServerOptions opts;
    opts.max_frame_bytes = 1'024;
    Server server(*service_, opts);
    ASSERT_TRUE(server.start().ok());

    auto sock = util::connectTcp(server.port(), 2'000);
    ASSERT_TRUE(sock.ok());
    // A frame the server's cap forbids. The client-side cap must be
    // larger or writeFrame would refuse locally.
    ASSERT_TRUE(util::writeFrame(sock.value(),
                                 std::string(4'096, 'x'), 1 << 20,
                                 1'000)
                    .ok());
    auto frame = util::readFrame(sock.value(), 1 << 20, 30'000);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    ASSERT_TRUE(frame.value().has_value());
    auto reply = parseReply(*frame.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply.value().ok);
    EXPECT_EQ(reply.value().error_code, err_bad_request);

    // The stream is unframeable from here on: the server hangs up.
    // With our oversized payload still unread on its side, that
    // close may surface as a clean FIN or a reset -- disconnected
    // either way, never a second reply.
    auto eof = util::readFrame(sock.value(), 1 << 20, 30'000);
    if (eof.ok())
        EXPECT_FALSE(eof.value().has_value());
    else
        EXPECT_EQ(eof.error().code, util::ErrorCode::IoFailure);
}

/** Every reply delayed @p delay_ms: a slow reply holds the executor. */
void
slowEveryReply(double delay_ms)
{
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::ConnSlow).rate = 1.0;
    plan.spec(fault::FaultKind::ConnSlow).delay_ms = delay_ms;
    fault::installFaultPlan(plan);
}

TEST_F(ServerTest, QueueOverflowRepliesOverloadedNotSilence)
{
    // One-deep queue, one-request batches, and every reply delayed
    // 300 ms: while the executor sleeps in its first reply, the queue
    // holds one admitted request and any further arrival must be
    // rejected -- deterministically, not racily.
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::ConnSlow).rate = 1.0;
    plan.spec(fault::FaultKind::ConnSlow).delay_ms = 300.0;
    fault::installFaultPlan(plan);

    ServerOptions opts;
    opts.queue_depth = 1;
    opts.batch_max = 1;
    Server server(*service_, opts);
    ASSERT_TRUE(server.start().ok());
    Client a = connectTo(server);
    Client b = connectTo(server);
    Client c = connectTo(server);

    Request req;
    req.type = RequestType::Evaluate;
    req.app = app_;
    req.space = drm::AdaptationSpace::Dvs;
    req.config = 1;

    // a's request finds the server idle and runs inline on its
    // reader thread, which then sleeps in the slow reply; b's
    // request fills the queue.
    ASSERT_TRUE(a.sendRequest(req).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(b.sendRequest(req).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // c must be rejected: the queue is full and the executor is
    // still asleep for another ~100 ms.
    auto rejected = c.call(req);
    ASSERT_TRUE(rejected.ok()) << rejected.error().str();
    ASSERT_FALSE(rejected.value().ok);
    EXPECT_EQ(rejected.value().error_code, err_overloaded);

    // The admitted requests still complete.
    auto ra = a.receiveReply();
    ASSERT_TRUE(ra.ok()) << ra.error().str();
    EXPECT_TRUE(ra.value().ok);
    auto rb = b.receiveReply();
    ASSERT_TRUE(rb.ok()) << rb.error().str();
    EXPECT_TRUE(rb.value().ok);
}

TEST_F(ServerTest, SlowRejectionDoesNotDelayAdmittedWork)
{
    // Every reply sleeps 400 ms. a runs inline (its reply done at
    // ~400 ms), b queues behind it, and c is rejected at ~300 ms. The
    // rejection's sleep must not hold up admission: b's hand-off
    // follows a's reply at once, so b is answered ~400 ms after it
    // starts (~750 ms after it was sent), not after c's sleep ends
    // too (~1050 ms).
    ServerOptions opts;
    opts.queue_depth = 1;
    opts.batch_max = 1;
    Server server(*service_, opts);
    ASSERT_TRUE(server.start().ok());
    Client a = connectTo(server);
    Client b = connectTo(server);
    Client c = connectTo(server);
    const std::string want = directEvaluate(1); // simulated here, not timed
    slowEveryReply(400.0);

    ASSERT_TRUE(a.sendRequest(evaluateRequest(app_, 1)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto b_sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(b.sendRequest(evaluateRequest(app_, 1)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    ASSERT_TRUE(c.sendRequest(evaluateRequest(app_, 1)).ok());

    auto rb = b.receiveReply();
    const auto b_latency = std::chrono::steady_clock::now() - b_sent;
    ASSERT_TRUE(rb.ok()) << rb.error().str();
    ASSERT_TRUE(rb.value().ok) << rb.value().error_message;
    EXPECT_EQ(util::writeJson(rb.value().result), want);
    EXPECT_LT(b_latency, std::chrono::milliseconds(900));

    auto rc = c.receiveReply();
    ASSERT_TRUE(rc.ok()) << rc.error().str();
    ASSERT_FALSE(rc.value().ok);
    EXPECT_EQ(rc.value().error_code, err_overloaded);
    auto ra = a.receiveReply();
    ASSERT_TRUE(ra.ok()) << ra.error().str();
    EXPECT_TRUE(ra.value().ok);
}

TEST_F(ServerTest, ShutdownDrainsThenRejects)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client worker = connectTo(server);

    // Admit work, then drain. sendRequest only proves the bytes left
    // our socket, so pipeline a stats probe behind the evaluate: one
    // connection's frames are handled in order, which makes the
    // probe's reply proof that the evaluate was admitted first.
    Request req;
    req.type = RequestType::Evaluate;
    req.app = app_;
    req.space = drm::AdaptationSpace::Dvs;
    req.config = 4;
    auto eval_id = worker.sendRequest(req);
    ASSERT_TRUE(eval_id.ok()) << eval_id.error().str();
    Request probe;
    probe.type = RequestType::Stats;
    auto probe_id = worker.sendRequest(probe);
    ASSERT_TRUE(probe_id.ok()) << probe_id.error().str();

    // Replies interleave (stats is answered inline, the evaluate by
    // the batcher), so collect until the probe's reply shows up.
    std::optional<Reply> eval_reply;
    for (;;) {
        auto r = worker.receiveReply();
        ASSERT_TRUE(r.ok()) << r.error().str();
        if (r.value().id == probe_id.value())
            break;
        ASSERT_EQ(r.value().id, eval_id.value());
        eval_reply = std::move(r.value());
    }

    Client admin = connectTo(server);
    ASSERT_TRUE(Client::unwrap(
                    admin.call(bareRequest(RequestType::Shutdown)))
                    .ok());
    EXPECT_TRUE(server.draining());

    // The admitted request is answered, never dropped.
    if (!eval_reply.has_value()) {
        auto r = worker.receiveReply();
        ASSERT_TRUE(r.ok()) << r.error().str();
        ASSERT_EQ(r.value().id, eval_id.value());
        eval_reply = std::move(r.value());
    }
    EXPECT_TRUE(eval_reply->ok);

    // New work is rejected with the drain code.
    auto late = worker.call(req);
    if (late.ok()) {
        ASSERT_FALSE(late.value().ok);
        EXPECT_EQ(late.value().error_code, err_shutting_down);
    } else {
        // The server may already have closed the connection.
        EXPECT_EQ(late.error().code, util::ErrorCode::IoFailure);
    }

    server.wait(); // Full drain terminates.
}

TEST_F(ServerTest, ForcedNonConvergenceIsReportedNotDropped)
{
    // Force every thermal fixed point to report non-convergence:
    // the evaluation is still valid and must come back ok with
    // converged == false, not vanish into an error.
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::NonConvergence).rate = 1.0;
    fault::installFaultPlan(plan);

    // A private service: the shared one's memos hold converged
    // points and its cache must stay clean.
    ServiceOptions opts;
    opts.cache_path = "";
    opts.threads = 2;
    opts.max_apps = 1;
    opts.eval_params.warmup_uops = 40'000;
    opts.eval_params.measure_uops = 60'000;
    EvaluationService service(opts);
    Server server(service, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    auto result = Client::unwrap(
        client.call(evaluateRequest(service.apps()[0].name, 0)));
    ASSERT_TRUE(result.ok()) << result.error().str();
    const util::JsonValue *converged =
        result.value().find("converged");
    ASSERT_NE(converged, nullptr);
    EXPECT_FALSE(converged->boolean);
}

TEST_F(ServerTest, ConnDropSeversDeterministically)
{
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::ConnDrop).rate = 1.0;
    fault::installFaultPlan(plan);

    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server, /*io_timeout_ms=*/2'000);

    // Every reply is dropped at rate 1.0: the call must fail with a
    // transport error, not hang past its deadline.
    auto result = Client::unwrap(client.call(evaluateRequest(app_, 0)));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.error().code == util::ErrorCode::IoFailure ||
                result.error().code == util::ErrorCode::Timeout)
        << result.error().str();
}

TEST_F(ServerTest, StatsCountsTraffic)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    ASSERT_TRUE(
        Client::unwrap(client.call(evaluateRequest(app_, 0))).ok());
    auto stats =
        Client::unwrap(client.call(bareRequest(RequestType::Stats)));
    ASSERT_TRUE(stats.ok()) << stats.error().str();
    const util::JsonValue *srv = stats.value().find("server");
    ASSERT_NE(srv, nullptr);
    EXPECT_GE(srv->find("requests")->number, 2.0);
    EXPECT_GE(srv->find("batches")->number, 1.0);
    EXPECT_EQ(srv->find("draining")->boolean, false);
    const util::JsonValue *cache = stats.value().find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_NE(cache->find("hits"), nullptr);
}

/** Batches run inline on an idle server's reader threads so far. */
std::uint64_t
inlineRuns()
{
    return telemetry::Registry::instance().snapshot().counter(
        "server.inline");
}

/** A server counter from statsJson(). */
double
statsCount(const Server &server, const char *key)
{
    return server.statsJson().find(key)->number;
}

TEST_F(ServerTest, LoneEvaluateOnAnIdleServerRunsInline)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    const std::uint64_t before = inlineRuns();
    auto served =
        Client::unwrap(client.call(evaluateRequest(app_, 5)));
    ASSERT_TRUE(served.ok()) << served.error().str();
    EXPECT_EQ(inlineRuns(), before + 1);
    EXPECT_EQ(statsCount(server, "batches"), 1.0);
    EXPECT_EQ(util::writeJson(served.value()), directEvaluate(5));
}

TEST_F(ServerTest, BacklogBehindABusyExecutorStillCoalesces)
{
    // a's evaluate runs inline and sleeps 200 ms in its reply; b's
    // three identical evaluates arrive meanwhile, queue, and reach
    // the batcher together as one batch and one evaluation.
    slowEveryReply(200.0);
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client a = connectTo(server);
    Client b = connectTo(server);

    const std::uint64_t before = inlineRuns();
    ASSERT_TRUE(a.sendRequest(evaluateRequest(app_, 1)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(b.sendRequest(evaluateRequest(app_, 6)).ok());

    auto ra = a.receiveReply();
    ASSERT_TRUE(ra.ok()) << ra.error().str();
    EXPECT_TRUE(ra.value().ok) << ra.value().error_message;
    const std::string want = directEvaluate(6);
    for (int i = 0; i < 3; ++i) {
        auto rb = b.receiveReply();
        ASSERT_TRUE(rb.ok()) << rb.error().str();
        ASSERT_TRUE(rb.value().ok) << rb.value().error_message;
        EXPECT_EQ(util::writeJson(rb.value().result), want);
    }
    EXPECT_EQ(inlineRuns(), before + 1);
    EXPECT_EQ(statsCount(server, "batches"), 2.0);
    EXPECT_EQ(statsCount(server, "coalesced"), 2.0);
}

TEST_F(ServerTest, ShutdownDuringASlowInlineReplyStillDeliversIt)
{
    slowEveryReply(300.0);
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client worker = connectTo(server);
    Client admin = connectTo(server);
    Client late = connectTo(server);

    // The evaluate runs inline; the drain begins while its reply
    // sleeps, and work arriving after that is turned away.
    ASSERT_TRUE(worker.sendRequest(evaluateRequest(app_, 2)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(admin.sendRequest(bareRequest(RequestType::Shutdown))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(server.draining());
    auto rejected = late.call(evaluateRequest(app_, 2));
    ASSERT_TRUE(rejected.ok()) << rejected.error().str();
    ASSERT_FALSE(rejected.value().ok);
    EXPECT_EQ(rejected.value().error_code, err_shutting_down);

    auto reply = worker.receiveReply();
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    EXPECT_TRUE(reply.value().ok) << reply.value().error_message;
    auto drained = admin.receiveReply();
    ASSERT_TRUE(drained.ok()) << drained.error().str();
    EXPECT_TRUE(drained.value().ok);
    server.wait();
}

TEST_F(ServerTest, StopWaitsOutASlowInlineReply)
{
    // stop() closes every connection once the batcher exits; the
    // batcher must not exit under an inline run still replying.
    slowEveryReply(300.0);
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Client client = connectTo(server);

    ASSERT_TRUE(client.sendRequest(evaluateRequest(app_, 3)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread stopper([&] { server.stop(); });
    auto reply = client.receiveReply();
    stopper.join();
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    EXPECT_TRUE(reply.value().ok) << reply.value().error_message;
}

TEST_F(ServerTest, PipelinedRequestsAreAnsweredInOrder)
{
    // Two connections pipeline at once, so requests meet both an
    // idle server (inline) and a busy one (queued, in small
    // batches); each connection's replies still come back in the
    // order it sent them.
    ServerOptions opts;
    opts.batch_max = 3;
    Server server(*service_, opts);
    ASSERT_TRUE(server.start().ok());
    std::vector<std::string> want;
    for (std::size_t config = 0; config < 8; ++config)
        want.push_back(directEvaluate(config));

    const auto pipeline = [&](Client &client) {
        std::vector<std::uint64_t> ids;
        for (std::size_t round = 0; round < 3; ++round)
            for (std::size_t config = 0; config < want.size();
                 ++config) {
                auto id =
                    client.sendRequest(evaluateRequest(app_, config));
                EXPECT_TRUE(id.ok()) << id.error().str();
                ids.push_back(id.ok() ? id.value() : 0);
            }
        return ids;
    };
    Client a = connectTo(server);
    Client b = connectTo(server);
    std::vector<std::uint64_t> b_ids;
    std::thread sender([&] { b_ids = pipeline(b); });
    const std::vector<std::uint64_t> a_ids = pipeline(a);
    sender.join();

    const auto expectInOrder = [&](Client &client,
                                   const std::vector<std::uint64_t> &ids) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            auto reply = client.receiveReply();
            ASSERT_TRUE(reply.ok()) << reply.error().str();
            ASSERT_TRUE(reply.value().ok)
                << reply.value().error_message;
            EXPECT_EQ(reply.value().id, ids[i]);
            EXPECT_EQ(util::writeJson(reply.value().result),
                      want[i % want.size()]);
        }
    };
    expectInOrder(a, a_ids);
    expectInOrder(b, b_ids);
}

TEST_F(ServerTest, IdleTimeoutDisconnectsSilentPeers)
{
    ServerOptions opts;
    opts.idle_timeout_ms = 100;
    Server server(*service_, opts);
    ASSERT_TRUE(server.start().ok());

    auto sock = util::connectTcp(server.port(), 2'000);
    ASSERT_TRUE(sock.ok());
    // Say nothing; the server must hang up on us.
    auto frame = util::readFrame(sock.value(), default_max_frame,
                                 5'000);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
    EXPECT_FALSE(frame.value().has_value());
}

} // namespace
} // namespace serve
} // namespace ramp
