/**
 * @file
 * Wire-protocol unit tests: request/reply encode-parse round trips,
 * strict validation, and error-code mapping. No sockets here --
 * framing behaviour lives in framing_test.cc.
 */

#include <gtest/gtest.h>

#include "serve/protocol.hh"

namespace ramp {
namespace serve {
namespace {

TEST(Protocol, RequestTypeNamesRoundTrip)
{
    for (RequestType t :
         {RequestType::Evaluate, RequestType::SelectDrm,
          RequestType::SelectDtm, RequestType::Stats,
          RequestType::Shutdown}) {
        const auto back = requestTypeFromName(requestTypeName(t));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, t);
    }
    EXPECT_FALSE(requestTypeFromName("EVALUATE").has_value());
    EXPECT_FALSE(requestTypeFromName("").has_value());
}

TEST(Protocol, EvaluateRoundTrip)
{
    Request req;
    req.id = 42;
    req.type = RequestType::Evaluate;
    req.app = "MPGdec";
    req.space = drm::AdaptationSpace::Dvs;
    req.config = 7;
    req.t_qual_k = 360.5;

    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().id, 42u);
    EXPECT_EQ(parsed.value().type, RequestType::Evaluate);
    EXPECT_EQ(parsed.value().app, "MPGdec");
    EXPECT_EQ(parsed.value().space, drm::AdaptationSpace::Dvs);
    EXPECT_EQ(parsed.value().config, 7u);
    EXPECT_DOUBLE_EQ(parsed.value().t_qual_k, 360.5);
}

TEST(Protocol, SelectDtmRoundTrip)
{
    Request req;
    req.id = 3;
    req.type = RequestType::SelectDtm;
    req.app = "gzip";
    req.space = drm::AdaptationSpace::ArchDvs;
    req.t_design_k = 372.0;

    const auto parsed = parseRequest(encodeRequest(req));
    ASSERT_TRUE(parsed.ok()) << parsed.error().str();
    EXPECT_EQ(parsed.value().type, RequestType::SelectDtm);
    EXPECT_DOUBLE_EQ(parsed.value().t_design_k, 372.0);
}

TEST(Protocol, StatsAndShutdownCarryNoBody)
{
    for (RequestType t :
         {RequestType::Stats, RequestType::Shutdown}) {
        Request req;
        req.id = 9;
        req.type = t;
        const auto parsed = parseRequest(encodeRequest(req));
        ASSERT_TRUE(parsed.ok()) << parsed.error().str();
        EXPECT_EQ(parsed.value().type, t);
    }
}

TEST(Protocol, ParseRejectsMalformedRequests)
{
    // Not JSON at all.
    EXPECT_FALSE(parseRequest("hello").ok());
    // Not an object.
    EXPECT_FALSE(parseRequest("[1,2]").ok());
    // Missing id.
    EXPECT_FALSE(parseRequest("{\"type\":\"stats\"}").ok());
    // Fractional / negative ids.
    EXPECT_FALSE(
        parseRequest("{\"id\":1.5,\"type\":\"stats\"}").ok());
    EXPECT_FALSE(
        parseRequest("{\"id\":-1,\"type\":\"stats\"}").ok());
    // Unknown type.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"explode\"}").ok());
    // Missing app on an evaluate.
    EXPECT_FALSE(
        parseRequest(
            "{\"id\":1,\"type\":\"evaluate\",\"space\":\"DVS\","
            "\"config\":0}")
            .ok());
    // Unknown adaptation space.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"evaluate\","
                     "\"app\":\"x\",\"space\":\"dvs\","
                     "\"config\":0}")
            .ok());
    // Non-finite temperature.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"select_drm\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"t_qual_k\":\"hot\"}")
            .ok());
}

TEST(Protocol, ParseRejectsFieldsForeignToTheType)
{
    // config on a select_drm would be silently ignored otherwise.
    const auto r1 =
        parseRequest("{\"id\":1,\"type\":\"select_drm\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"config\":3}");
    ASSERT_FALSE(r1.ok());
    EXPECT_NE(r1.error().message.find("config"), std::string::npos);

    // t_design_k only applies to select_dtm.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"evaluate\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"config\":0,\"t_design_k\":370}")
            .ok());

    // A body on a stats request is a client bug, not noise.
    EXPECT_FALSE(
        parseRequest(
            "{\"id\":1,\"type\":\"stats\",\"app\":\"x\"}")
            .ok());
}

namespace {

// The three verbs that once took a "surrogate" field. The field is
// retired: older clients may still send it, so it is parsed and then
// ignored.
const char *const kSurrogateVerbBodies[] = {
    "\"type\":\"select_drm\",\"app\":\"gzip\",\"space\":\"DVS\"",
    "\"type\":\"select_dtm\",\"app\":\"gzip\",\"space\":\"DVS\"",
    "\"v\":2,\"type\":\"remaining_lifetime\",\"chip\":\"c\","
    "\"app\":\"gzip\",\"space\":\"DVS\"",
};

} // namespace

TEST(Protocol, SurrogateModeRoundTripsOnSelects)
{
    // Every valid mode parses to the same request as no field at all.
    for (const char *body : kSurrogateVerbBodies) {
        const auto plain =
            parseRequest(std::string("{\"id\":5,") + body + "}");
        ASSERT_TRUE(plain.ok()) << plain.error().str();
        const std::string want = encodeRequest(plain.value());
        for (const char *mode : {"off", "rank", "auto"}) {
            const auto with = parseRequest(
                std::string("{\"id\":5,") + body +
                ",\"surrogate\":\"" + mode + "\"}");
            ASSERT_TRUE(with.ok()) << with.error().str();
            EXPECT_EQ(encodeRequest(with.value()), want)
                << body << " surrogate=" << mode;
        }
    }
}

TEST(Protocol, SurrogateDefaultsToOffAndStaysOffTheWire)
{
    // The encoder never emits the field, so servers that still
    // validate it keep parsing new clients' requests.
    for (const char *body : kSurrogateVerbBodies) {
        for (const char *extra :
             {"", ",\"surrogate\":\"off\"", ",\"surrogate\":\"rank\""}) {
            const auto parsed = parseRequest(
                std::string("{\"id\":6,") + body + extra + "}");
            ASSERT_TRUE(parsed.ok()) << parsed.error().str();
            const std::string wire = encodeRequest(parsed.value());
            EXPECT_EQ(wire.find("surrogate"), std::string::npos)
                << body << extra;
            const auto again = parseRequest(wire);
            ASSERT_TRUE(again.ok()) << again.error().str();
            EXPECT_EQ(encodeRequest(again.value()), wire);
        }
    }
}

TEST(Protocol, SurrogateFieldIsValidated)
{
    // Unknown mode.
    const auto bad =
        parseRequest("{\"id\":1,\"type\":\"select_drm\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"surrogate\":\"fast\"}");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.error().message.find("surrogate"),
              std::string::npos);

    // Wrong type.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"select_drm\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"surrogate\":1}")
            .ok());

    // Foreign to non-select types.
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"evaluate\","
                     "\"app\":\"x\",\"space\":\"DVS\","
                     "\"config\":0,\"surrogate\":\"rank\"}")
            .ok());
    EXPECT_FALSE(
        parseRequest("{\"id\":1,\"type\":\"stats\","
                     "\"surrogate\":\"rank\"}")
            .ok());
}

TEST(Protocol, ReplyRoundTrips)
{
    util::JsonValue result = util::JsonValue::makeObject();
    result.set("fit", util::JsonValue::makeNumber(1234.5));
    const auto ok =
        parseReply(encodeResultReply(17, std::move(result)));
    ASSERT_TRUE(ok.ok()) << ok.error().str();
    EXPECT_EQ(ok.value().id, 17u);
    EXPECT_TRUE(ok.value().ok);
    const util::JsonValue *fit = ok.value().result.find("fit");
    ASSERT_NE(fit, nullptr);
    EXPECT_DOUBLE_EQ(fit->number, 1234.5);

    const auto err = parseReply(
        encodeErrorReply(18, err_overloaded, "queue full"));
    ASSERT_TRUE(err.ok()) << err.error().str();
    EXPECT_EQ(err.value().id, 18u);
    EXPECT_FALSE(err.value().ok);
    EXPECT_EQ(err.value().error_code, err_overloaded);
    EXPECT_EQ(err.value().error_message, "queue full");

    EXPECT_FALSE(parseReply("{\"id\":1}").ok());
    EXPECT_FALSE(parseReply("{\"id\":1,\"ok\":true}").ok());
    EXPECT_FALSE(parseReply("{\"id\":1,\"ok\":false}").ok());
}

TEST(Protocol, ReplyErrorCodeMapping)
{
    EXPECT_EQ(replyErrorCode(err_overloaded),
              util::ErrorCode::Overloaded);
    EXPECT_EQ(replyErrorCode(err_shutting_down),
              util::ErrorCode::Unavailable);
    EXPECT_EQ(replyErrorCode("non-convergence"),
              util::ErrorCode::NonConvergence);
    EXPECT_EQ(replyErrorCode("timeout"), util::ErrorCode::Timeout);
    EXPECT_EQ(replyErrorCode("no-such-code"),
              util::ErrorCode::InvalidInput);
}

} // namespace
} // namespace serve
} // namespace ramp
