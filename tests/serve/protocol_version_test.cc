/**
 * @file
 * Protocol-versioning tests: the v0 wire shape is pinned byte for
 * byte (old clients must keep working against a new server), the
 * "v" field gates types and fields by the version they arrived in,
 * hello round-trips, and versions newer than this build are refused
 * structurally.
 */

#include <string>

#include <gtest/gtest.h>

#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace ramp {
namespace serve {
namespace {

TEST(ProtocolVersion, V0RequestBytesArePinned)
{
    // These exact bytes are the pre-versioning wire shape; encoding
    // them differently would break deployed v0 servers.
    Request eval;
    eval.id = 42;
    eval.type = RequestType::Evaluate;
    eval.app = "MPGdec";
    eval.space = drm::AdaptationSpace::Dvs;
    eval.config = 7;
    EXPECT_EQ(encodeRequest(eval),
              "{\"id\":42,\"type\":\"evaluate\",\"app\":\"MPGdec\","
              "\"space\":\"DVS\",\"config\":7,\"t_qual_k\":345}");

    Request stats;
    stats.id = 9;
    stats.type = RequestType::Stats;
    EXPECT_EQ(encodeRequest(stats),
              "{\"id\":9,\"type\":\"stats\"}");
}

TEST(ProtocolVersion, V0ReplyBytesArePinned)
{
    util::JsonValue result = util::JsonValue::makeObject();
    result.set("fit", util::JsonValue::makeNumber(4000));
    EXPECT_EQ(encodeResultReply(7, std::move(result), 0),
              "{\"id\":7,\"ok\":true,\"result\":{\"fit\":4000}}");
    EXPECT_EQ(encodeErrorReply(8, err_overloaded, "queue full", 0),
              "{\"id\":8,\"ok\":false,\"error\":{\"code\":"
              "\"overloaded\",\"message\":\"queue full\"}}");
}

TEST(ProtocolVersion, VersionedRepliesCarryVAfterId)
{
    util::JsonValue result = util::JsonValue::makeObject();
    EXPECT_EQ(encodeResultReply(7, std::move(result), 2),
              "{\"id\":7,\"v\":2,\"ok\":true,\"result\":{}}");
    const auto parsed = parseReply(
        encodeErrorReply(8, err_bad_request, "nope", 1));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().version, 1);
    EXPECT_FALSE(parsed.value().ok);
    EXPECT_EQ(parsed.value().error_code, err_bad_request);
}

TEST(ProtocolVersion, VersionedRequestsRoundTripTheirVersion)
{
    Request req;
    req.id = 5;
    req.version = 1;
    req.type = RequestType::SelectDrm;
    req.app = "gzip";
    req.space = drm::AdaptationSpace::Dvs;
    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().version, 1);
    EXPECT_EQ(parsed.value().type, RequestType::SelectDrm);
}

TEST(ProtocolVersion, FutureVersionIsRefusedStructurally)
{
    const auto r =
        parseRequest("{\"id\":1,\"v\":4,\"type\":\"stats\"}");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, util::ErrorCode::InvalidInput);
    EXPECT_NE(r.error().message.find("newer"), std::string::npos);
}

TEST(ProtocolVersion, HelloRoundTripsAndNeedsV1)
{
    Request req;
    req.id = 6;
    req.version = 1;
    req.type = RequestType::Hello;
    req.max_v = 2;
    const std::string wire = encodeRequest(req);
    EXPECT_EQ(wire, "{\"id\":6,\"v\":1,\"type\":\"hello\","
                    "\"max_v\":2}");
    const auto parsed = parseRequest(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().type, RequestType::Hello);
    EXPECT_EQ(parsed.value().max_v, 2);

    // A hello without "v" is a v0 frame using a v1 type.
    const auto v0 =
        parseRequest("{\"id\":6,\"type\":\"hello\",\"max_v\":2}");
    ASSERT_FALSE(v0.ok());
    EXPECT_NE(v0.error().message.find("needs protocol v1"),
              std::string::npos);
}

TEST(ProtocolVersion, FleetVerbsNeedV2)
{
    EXPECT_EQ(requestTypeMinVersion(RequestType::ReportUsage), 2);
    EXPECT_EQ(requestTypeMinVersion(RequestType::RemainingLifetime),
              2);
    for (const char *type : {"report_usage", "remaining_lifetime"}) {
        const auto r = parseRequest(util::cat(
            "{\"id\":1,\"v\":1,\"type\":\"", type,
            "\",\"chip\":\"c0\",\"app\":\"x\",\"space\":\"DVS\","
            "\"state\":{}}"));
        ASSERT_FALSE(r.ok()) << type;
        EXPECT_NE(r.error().message.find("needs protocol v2"),
                  std::string::npos);
    }
}

TEST(ProtocolVersion, ReportUsageParsesStrictly)
{
    Request req;
    req.id = 11;
    req.version = 2;
    req.type = RequestType::ReportUsage;
    req.chip = "fleet-0042";
    req.state = util::JsonValue::makeObject();
    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().chip, "fleet-0042");
    EXPECT_TRUE(parsed.value().state.isObject());

    // chip and state are required; state must be an object; empty
    // chip names and foreign fields are rejected.
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"report_usage\",\"chip\":\"c0\"}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"report_usage\",\"chip\":\"\","
                              "\"state\":{}}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"report_usage\",\"chip\":\"c0\","
                              "\"state\":7}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"report_usage\",\"chip\":\"c0\","
                              "\"state\":{},\"config\":1}")
                     .ok());
}

TEST(ProtocolVersion, RemainingLifetimeParsesStrictly)
{
    Request req;
    req.id = 12;
    req.version = 2;
    req.type = RequestType::RemainingLifetime;
    req.chip = "fleet-0042";
    req.app = "gzip";
    req.space = drm::AdaptationSpace::Dvs;
    req.t_qual_k = 350.0;
    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().chip, "fleet-0042");
    EXPECT_EQ(parsed.value().app, "gzip");
    EXPECT_DOUBLE_EQ(parsed.value().t_qual_k, 350.0);

    // Required fields and type gating on the embedded fields.
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"remaining_lifetime\",\"chip\":"
                              "\"c0\",\"app\":\"x\"}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":2,\"type\":"
                              "\"remaining_lifetime\",\"chip\":"
                              "\"c0\",\"app\":\"x\",\"space\":"
                              "\"DVS\",\"t_design_k\":370}")
                     .ok());
}

TEST(ProtocolVersion, ReportUsageSeqIsOptionalAndOmittedAtDefault)
{
    // seq arrived in v2 as the idempotency handle for retried
    // reports. It is optional, and the encoder omits it at its
    // default -- a seq-less v2 report keeps its old bytes.
    Request req;
    req.id = 13;
    req.version = 2;
    req.type = RequestType::ReportUsage;
    req.chip = "c0";
    req.state = util::JsonValue::makeObject();
    EXPECT_EQ(encodeRequest(req).find("\"seq\""),
              std::string::npos);

    req.seq = 77;
    const std::string encoded = encodeRequest(req);
    EXPECT_NE(encoded.find("\"seq\":77"), std::string::npos);
    const auto parsed = parseRequest(encoded);
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().seq, 77u);

    // Absent seq parses as 0 (no dedup).
    const auto bare = parseRequest(
        "{\"id\":1,\"v\":2,\"type\":\"report_usage\",\"chip\":"
        "\"c0\",\"state\":{}}");
    ASSERT_TRUE(bare.ok()) << bare.error().str();
    EXPECT_EQ(bare.value().seq, 0u);
}

TEST(ProtocolVersion, CacheAppendParsesStrictly)
{
    EXPECT_EQ(requestTypeMinVersion(RequestType::CacheAppend), 2);

    Request req;
    req.id = 14;
    req.version = 2;
    req.type = RequestType::CacheAppend;
    req.key = "cfg-key";
    req.record = "cfg-key 1 2 3";
    const std::string encoded = encodeRequest(req);
    EXPECT_EQ(encoded.find("epoch"), std::string::npos);
    const auto parsed = parseRequest(encoded);
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().key, "cfg-key");
    EXPECT_EQ(parsed.value().record, "cfg-key 1 2 3");

    // The replication verb needs v2...
    EXPECT_FALSE(parseRequest(
                     "{\"id\":1,\"v\":1,\"type\":\"cache_append\","
                     "\"key\":\"k\",\"record\":\"k 1\","
                     "\"epoch\":0}")
                     .ok());
    // ...and key and record are both required.
    EXPECT_FALSE(parseRequest(
                     "{\"id\":1,\"v\":2,\"type\":\"cache_append\","
                     "\"record\":\"k 1\",\"epoch\":0}")
                     .ok());
    EXPECT_FALSE(parseRequest(
                     "{\"id\":1,\"v\":2,\"type\":\"cache_append\","
                     "\"key\":\"k\",\"epoch\":0}")
                     .ok());
    // An older sender's epoch is still accepted, validated, and
    // ignored.
    EXPECT_TRUE(parseRequest(
                    "{\"id\":1,\"v\":2,\"type\":\"cache_append\","
                    "\"key\":\"k\",\"record\":\"k 1\","
                    "\"epoch\":3}")
                    .ok());
    EXPECT_FALSE(parseRequest(
                     "{\"id\":1,\"v\":2,\"type\":\"cache_append\","
                     "\"key\":\"k\",\"record\":\"k 1\","
                     "\"epoch\":-1}")
                     .ok());
    // Foreign fields stay rejected.
    EXPECT_FALSE(parseRequest(
                     "{\"id\":1,\"v\":2,\"type\":\"cache_append\","
                     "\"key\":\"k\",\"record\":\"k 1\","
                     "\"epoch\":0,\"config\":1}")
                     .ok());
}

TEST(ProtocolVersion, SelectChipRoundTripsAndNeedsV3)
{
    EXPECT_EQ(requestTypeMinVersion(RequestType::SelectChip), 3);

    Request req;
    req.id = 15;
    req.version = 3;
    req.type = RequestType::SelectChip;
    req.core_apps = {"gzip", "MPGdec"};
    req.space = drm::AdaptationSpace::Dvs;
    req.budget_policy = cmp::BudgetPolicy::Global;
    const std::string wire = encodeRequest(req);
    // The default-Null floorplan is omitted; policy and t_qual_k
    // ride along explicitly.
    EXPECT_EQ(wire,
              "{\"id\":15,\"v\":3,\"type\":\"select_chip\","
              "\"apps\":[\"gzip\",\"MPGdec\"],\"space\":\"DVS\","
              "\"policy\":\"global\",\"t_qual_k\":345}");
    const auto parsed = parseRequest(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().type, RequestType::SelectChip);
    ASSERT_EQ(parsed.value().core_apps.size(), 2u);
    EXPECT_EQ(parsed.value().core_apps[0], "gzip");
    EXPECT_EQ(parsed.value().core_apps[1], "MPGdec");
    EXPECT_EQ(parsed.value().budget_policy,
              cmp::BudgetPolicy::Global);
    EXPECT_TRUE(parsed.value().floorplan.isNull());

    // The verb arrived in v3: a v2 frame using it is refused.
    const auto v2 = parseRequest(
        "{\"id\":1,\"v\":2,\"type\":\"select_chip\",\"apps\":"
        "[\"gzip\"],\"space\":\"DVS\"}");
    ASSERT_FALSE(v2.ok());
    EXPECT_NE(v2.error().message.find("needs protocol v3"),
              std::string::npos);
}

TEST(ProtocolVersion, SelectChipParsesStrictly)
{
    // apps must be a non-empty array of non-empty strings.
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[],"
                              "\"space\":\"DVS\"}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[\"x\",7],"
                              "\"space\":\"DVS\"}")
                     .ok());
    // apps and space are required; unknown policies and foreign
    // fields are rejected.
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"space\":\"DVS\"}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[\"x\"]}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[\"x\"],"
                              "\"space\":\"DVS\",\"policy\":"
                              "\"fair\"}")
                     .ok());
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[\"x\"],"
                              "\"space\":\"DVS\",\"config\":1}")
                     .ok());
}

TEST(ProtocolVersion, SelectChipFloorplanIsValidatedAtParseTime)
{
    // A valid placement document round-trips...
    Request req;
    req.id = 16;
    req.version = 3;
    req.type = RequestType::SelectChip;
    req.core_apps = {"gzip", "MPGdec"};
    req.space = drm::AdaptationSpace::Dvs;
    std::string err;
    const auto plan = util::parseJson(
        "{\"cores\":[{\"name\":\"c0\",\"x_mm\":0,\"y_mm\":0},"
        "{\"name\":\"c1\",\"x_mm\":4.5,\"y_mm\":0}]}",
        &err);
    ASSERT_TRUE(plan.has_value()) << err;
    req.floorplan = *plan;
    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_TRUE(parsed.value().floorplan.isObject());

    // ...while a malformed one is a structured parse failure naming
    // the offending core, so the server answers bad-request instead
    // of failing deep in evaluation.
    const auto bad = parseRequest(
        "{\"id\":1,\"v\":3,\"type\":\"select_chip\",\"apps\":"
        "[\"x\",\"y\"],\"space\":\"DVS\",\"floorplan\":{\"cores\":"
        "[{\"name\":\"c0\",\"x_mm\":0,\"y_mm\":0},{\"name\":\"c1\","
        "\"x_mm\":1.0,\"y_mm\":0}]}}");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, util::ErrorCode::InvalidInput);
    EXPECT_NE(bad.error().message.find("request:cores"),
              std::string::npos);

    // A floorplan that is not an object at all is rejected too.
    EXPECT_FALSE(parseRequest("{\"id\":1,\"v\":3,\"type\":"
                              "\"select_chip\",\"apps\":[\"x\"],"
                              "\"space\":\"DVS\",\"floorplan\":7}")
                     .ok());
}

} // namespace
} // namespace serve
} // namespace ramp
