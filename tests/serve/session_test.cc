/**
 * @file
 * End-to-end tests of the versioned client surface against an
 * in-process server: hello negotiation, the v2 fleet verbs
 * (report_usage merging into the registry, remaining_lifetime
 * answering a slack-banking selection), local refusal of verbs the
 * negotiated version cannot carry, the guarantee that legacy v0
 * clients still see byte-for-byte unversioned replies, and the aging
 * registry's file round trip.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aging/state.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"

namespace ramp {
namespace serve {
namespace {

class SessionTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ServiceOptions opts;
        opts.cache_path = ""; // In-memory.
        opts.threads = 2;
        opts.max_apps = 1;
        opts.eval_params.warmup_uops = 40'000;
        opts.eval_params.measure_uops = 60'000;
        service_ = std::make_unique<EvaluationService>(opts);
        service_->ensureReady();
        app_ = service_->apps()[0].name;
    }

    static void TearDownTestSuite() { service_.reset(); }

    static Session
    openTo(const Server &server,
           int max_v = protocol_version_max)
    {
        ClientOptions opts;
        opts.port = server.port();
        auto session = Session::open(opts, max_v);
        EXPECT_TRUE(session.ok()) << session.error().str();
        return std::move(session.value());
    }

    /** A small, valid AgingState delta document. */
    static util::JsonValue
    delta(double pair00, double hours)
    {
        aging::AgingState st;
        st.age_hours = hours;
        st.damage[0][0] = pair00;
        return aging::toJson(st);
    }

    static std::unique_ptr<EvaluationService> service_;
    static std::string app_;
};

std::unique_ptr<EvaluationService> SessionTest::service_;
std::string SessionTest::app_;

TEST_F(SessionTest, HelloNegotiatesTheHighestCommonVersion)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    EXPECT_EQ(openTo(server).version(), protocol_version_max);
    EXPECT_EQ(openTo(server, 1).version(), 1);
}

TEST_F(SessionTest, SessionAnswersMatchTheLegacyClient)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);

    ClientOptions copts;
    copts.port = server.port();
    auto legacy = Client::connect(copts);
    ASSERT_TRUE(legacy.ok());

    auto versioned =
        session.evaluate(app_, drm::AdaptationSpace::Dvs, 2);
    ASSERT_TRUE(versioned.ok()) << versioned.error().str();
    Request req;
    req.type = RequestType::Evaluate;
    req.app = app_;
    req.space = drm::AdaptationSpace::Dvs;
    req.config = 2;
    auto v0 = Client::unwrap(legacy.value().call(std::move(req)));
    ASSERT_TRUE(v0.ok()) << v0.error().str();
    // Same result object either way: versioning only wraps frames.
    EXPECT_EQ(util::writeJson(versioned.value()),
              util::writeJson(v0.value()));
}

TEST_F(SessionTest, LegacyClientRepliesCarryNoVersionField)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    ClientOptions copts;
    copts.port = server.port();
    auto legacy = Client::connect(copts);
    ASSERT_TRUE(legacy.ok());
    Request req;
    req.type = RequestType::Stats;
    auto reply = legacy.value().call(req);
    ASSERT_TRUE(reply.ok()) << reply.error().str();
    // parseReply reports version 0 only when "v" was absent, so
    // this pins the legacy shape end to end over a real socket.
    EXPECT_EQ(reply.value().version, 0);
    EXPECT_TRUE(reply.value().ok);
}

TEST_F(SessionTest, ReportUsageMergesIntoTheRegistry)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);

    auto first =
        session.reportUsage("session-test-merge", delta(0.1, 100.0));
    ASSERT_TRUE(first.ok()) << first.error().str();
    auto second =
        session.reportUsage("session-test-merge", delta(0.2, 50.0));
    ASSERT_TRUE(second.ok()) << second.error().str();

    const auto *age = second.value().find("age_hours");
    ASSERT_NE(age, nullptr);
    EXPECT_DOUBLE_EQ(age->number, 150.0);

    const auto chip = service_->chipState("session-test-merge");
    ASSERT_TRUE(chip.has_value());
    EXPECT_DOUBLE_EQ(chip->age_hours, 150.0);
    EXPECT_NEAR(chip->damage[0][0], 0.3, 1e-12);
}

TEST_F(SessionTest, ReportUsageRejectsDefectiveStates)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);
    auto bad = session.reportUsage("session-test-bad",
                                   util::JsonValue::makeObject());
    ASSERT_FALSE(bad.ok());
    // The defective delta must not create the chip.
    EXPECT_FALSE(service_->chipState("session-test-bad")
                     .has_value());
}

TEST_F(SessionTest, RemainingLifetimeAnswersASafeOperatingPoint)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);

    ASSERT_TRUE(session
                    .reportUsage("session-test-life",
                                 delta(0.25, 9000.0))
                    .ok());
    auto life = session.remainingLifetime("session-test-life", app_,
                                          drm::AdaptationSpace::Dvs);
    ASSERT_TRUE(life.ok()) << life.error().str();

    const auto &doc = life.value();
    ASSERT_NE(doc.find("consumed"), nullptr);
    ASSERT_NE(doc.find("slack"), nullptr);
    ASSERT_NE(doc.find("t_qual_eff_k"), nullptr);
    ASSERT_NE(doc.find("selection"), nullptr);
    EXPECT_GT(doc.find("consumed")->number, 0.0);
    // The answer must state an ETA one way or the other.
    EXPECT_TRUE(doc.find("eta_hours") != nullptr ||
                doc.find("eta_unbounded") != nullptr);
    // The embedded selection is a full selectDrm result.
    ASSERT_NE(doc.find("selection")->find("fit"), nullptr);
}

TEST_F(SessionTest, RemainingLifetimeForAnUnknownChipIsStructured)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);
    auto life = session.remainingLifetime("never-reported", app_,
                                          drm::AdaptationSpace::Dvs);
    ASSERT_FALSE(life.ok());
    EXPECT_EQ(life.error().code, util::ErrorCode::InvalidInput);
}

TEST_F(SessionTest, FleetVerbsRefuseLocallyBelowV2)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server, 1);
    ASSERT_EQ(session.version(), 1);
    auto usage =
        session.reportUsage("session-test-v1", delta(0.1, 1.0));
    ASSERT_FALSE(usage.ok());
    EXPECT_EQ(usage.error().code, util::ErrorCode::InvalidInput);
    auto life = session.remainingLifetime("session-test-v1", app_,
                                          drm::AdaptationSpace::Dvs);
    ASSERT_FALSE(life.ok());
    // Refused before any bytes hit the wire: the chip never
    // reaches the server.
    EXPECT_FALSE(service_->chipState("session-test-v1")
                     .has_value());
}

TEST_F(SessionTest, SelectChipServesChipSelections)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);
    ASSERT_EQ(session.version(), 3);

    const std::vector<std::string> apps{app_, app_};
    auto per_core =
        session.selectChip(apps, drm::AdaptationSpace::Dvs,
                           cmp::BudgetPolicy::PerCore);
    ASSERT_TRUE(per_core.ok()) << per_core.error().str();
    auto global = session.selectChip(apps, drm::AdaptationSpace::Dvs,
                                     cmp::BudgetPolicy::Global);
    ASSERT_TRUE(global.ok()) << global.error().str();

    const auto &doc = global.value();
    ASSERT_NE(doc.find("policy"), nullptr);
    EXPECT_EQ(doc.find("policy")->str, "global");
    ASSERT_NE(doc.find("budget_fit"), nullptr);
    ASSERT_NE(doc.find("chip_fit"), nullptr);
    ASSERT_NE(doc.find("cores"), nullptr);
    EXPECT_EQ(doc.find("cores")->array.size(), 2u);
    // The chip budget is the per-core default share times the core
    // count, and the global sum stays within it.
    EXPECT_DOUBLE_EQ(doc.find("budget_fit")->number, 8000.0);
    EXPECT_LE(doc.find("chip_fit")->number,
              doc.find("budget_fit")->number + 1e-9);
    // Reallocating cool cores' headroom never loses throughput.
    EXPECT_GE(doc.find("throughput_rel")->number,
              per_core.value().find("throughput_rel")->number -
                  1e-9);

    // An explicit floorplan equal to the built-in grid answers
    // identically (the placement only fixes the chip's shape).
    std::string err;
    const auto plan = util::parseJson(
        "{\"cores\":[{\"name\":\"c0\",\"x_mm\":0,\"y_mm\":0},"
        "{\"name\":\"c1\",\"x_mm\":4.5,\"y_mm\":0}]}",
        &err);
    ASSERT_TRUE(plan.has_value()) << err;
    auto planned =
        session.selectChip(apps, drm::AdaptationSpace::Dvs,
                           cmp::BudgetPolicy::Global, 345.0, *plan);
    ASSERT_TRUE(planned.ok()) << planned.error().str();
    EXPECT_EQ(util::writeJson(planned.value()),
              util::writeJson(global.value()));
}

TEST_F(SessionTest, SelectChipRejectsShapeMismatchesStructurally)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);

    // Three cores have no built-in grid and no floorplan was sent.
    auto three = session.selectChip({app_, app_, app_},
                                    drm::AdaptationSpace::Dvs);
    ASSERT_FALSE(three.ok());
    EXPECT_EQ(three.error().code, util::ErrorCode::InvalidInput);

    // A floorplan whose core count disagrees with the app list.
    std::string err;
    const auto plan = util::parseJson(
        "{\"cores\":[{\"name\":\"c0\",\"x_mm\":0,\"y_mm\":0}]}",
        &err);
    ASSERT_TRUE(plan.has_value()) << err;
    auto mismatch =
        session.selectChip({app_, app_}, drm::AdaptationSpace::Dvs,
                           cmp::BudgetPolicy::Global, 345.0, *plan);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.error().code,
              util::ErrorCode::InvalidInput);
}

TEST_F(SessionTest, SelectChipRefusesLocallyBelowV3)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server, 2);
    ASSERT_EQ(session.version(), 2);
    auto sel =
        session.selectChip({app_}, drm::AdaptationSpace::Dvs);
    ASSERT_FALSE(sel.ok());
    EXPECT_EQ(sel.error().code, util::ErrorCode::InvalidInput);
    EXPECT_NE(sel.error().message.find("select_chip"),
              std::string::npos);
}

TEST_F(SessionTest, StatsCountsHellosAndUsageReports)
{
    Server server(*service_, ServerOptions{});
    ASSERT_TRUE(server.start().ok());
    Session session = openTo(server);
    ASSERT_TRUE(session
                    .reportUsage("session-test-stats",
                                 delta(0.01, 1.0))
                    .ok());
    auto stats = session.stats();
    ASSERT_TRUE(stats.ok()) << stats.error().str();
    const auto *counters = stats.value().find("server");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("hellos"), nullptr);
    ASSERT_NE(counters->find("usage_reports"), nullptr);
    EXPECT_GE(counters->find("hellos")->number, 1.0);
    EXPECT_GE(counters->find("usage_reports")->number, 1.0);
}

/** A sequenced report_usage request adding @p hours to @p chip. */
Request
usageRequest(const std::string &chip, std::uint64_t seq, double hours)
{
    aging::AgingState st;
    st.age_hours = hours;
    Request req;
    req.version = 2;
    req.type = RequestType::ReportUsage;
    req.chip = chip;
    req.state = aging::toJson(st);
    req.seq = seq;
    return req;
}

/** A service that never evaluates: the registry needs no engine. */
ServiceOptions
registryOptions()
{
    ServiceOptions opts;
    opts.cache_path = "";
    opts.threads = 1;
    opts.max_apps = 1;
    return opts;
}

bool
applied(const util::Result<util::JsonValue> &reply)
{
    EXPECT_TRUE(reply.ok()) << reply.error().str();
    const auto *flag = reply.value().find("applied");
    EXPECT_NE(flag, nullptr);
    return flag && flag->boolean;
}

TEST(AgingRegistry, RestartRemembersAppliedSequenceNumbers)
{
    const std::string path =
        testing::TempDir() + "ramp_registry_seq.json";
    std::remove(path.c_str());
    {
        EvaluationService before(registryOptions());
        EXPECT_TRUE(applied(
            before.reportUsage(usageRequest("chip-a", 7, 100.0))));
        EXPECT_FALSE(applied(
            before.reportUsage(usageRequest("chip-a", 7, 100.0))));
        ASSERT_TRUE(before.saveAgingRegistry(path).ok());
    }

    // The replay after a restart is still a replay: its damage must
    // not be counted twice.
    EvaluationService after(registryOptions());
    ASSERT_TRUE(after.loadAgingRegistry(path).ok());
    EXPECT_FALSE(applied(
        after.reportUsage(usageRequest("chip-a", 7, 100.0))));
    EXPECT_DOUBLE_EQ(after.chipState("chip-a")->age_hours, 100.0);
    EXPECT_TRUE(applied(
        after.reportUsage(usageRequest("chip-a", 8, 100.0))));
    EXPECT_DOUBLE_EQ(after.chipState("chip-a")->age_hours, 200.0);
    std::remove(path.c_str());
}

TEST(AgingRegistry, VersionOneFilesLoadWithEverySeqAtZero)
{
    const std::string path =
        testing::TempDir() + "ramp_registry_v1.json";
    const auto write = [&](int version) {
        aging::AgingState st;
        st.age_hours = 40.0;
        util::JsonValue chips = util::JsonValue::makeObject();
        chips.set("chip-b", aging::toJson(st));
        util::JsonValue doc = util::JsonValue::makeObject();
        doc.set("v", util::JsonValue::makeNumber(version));
        doc.set("chips", std::move(chips));
        ASSERT_TRUE(util::saveJson(path, doc).ok());
    };

    write(1);
    EvaluationService service(registryOptions());
    ASSERT_TRUE(service.loadAgingRegistry(path).ok());
    ASSERT_TRUE(service.chipState("chip-b").has_value());
    EXPECT_DOUBLE_EQ(service.chipState("chip-b")->age_hours, 40.0);
    EXPECT_TRUE(applied(
        service.reportUsage(usageRequest("chip-b", 1, 10.0))));
    EXPECT_DOUBLE_EQ(service.chipState("chip-b")->age_hours, 50.0);

    // A registry from a newer build is refused, not quarantined.
    write(3);
    EvaluationService newer(registryOptions());
    const auto refused = newer.loadAgingRegistry(path);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, util::ErrorCode::InvalidInput);
    std::remove(path.c_str());
}

} // namespace
} // namespace serve
} // namespace ramp
