/**
 * @file
 * Tests for the streaming JSON writer: structure, escaping, numeric
 * edge cases, and misuse detection.
 */

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/json.hh"

namespace ramp::util {
namespace {

TEST(Json, EmptyObject)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().endObject();
    EXPECT_EQ(os.str(), "{}");
    EXPECT_TRUE(w.complete());
}

TEST(Json, FlatObject)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .kv("name", "bzip2")
        .kv("ipc", 1.73)
        .kv("count", std::uint64_t{42})
        .kv("ok", true)
        .endObject();
    EXPECT_EQ(os.str(),
              "{\"name\":\"bzip2\",\"ipc\":1.73,\"count\":42,"
              "\"ok\":true}");
}

TEST(Json, NestedStructures)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("arr").beginArray();
    w.value(std::int64_t{1});
    w.value(std::int64_t{2});
    w.beginObject().kv("x", 3.5).endObject();
    w.endArray();
    w.key("obj").beginObject().kv("y", false).endObject();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"arr\":[1,2,{\"x\":3.5}],\"obj\":{\"y\":false}}");
    EXPECT_TRUE(w.complete());
}

TEST(Json, ArrayAsRoot)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray().value("a").value("b").endArray();
    EXPECT_EQ(os.str(), "[\"a\",\"b\"]");
}

TEST(Json, EscapesStrings)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().kv("k", "a\"b\\c\nd\te").endObject();
    EXPECT_EQ(os.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharactersEscapedAsUnicode)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().kv("k", std::string_view("\x01", 1)).endObject();
    EXPECT_EQ(os.str(), "{\"k\":\"\\u0001\"}");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .kv("nan", std::nan(""))
        .kv("inf", INFINITY)
        .endObject();
    EXPECT_EQ(os.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(Json, ExplicitNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray().null().endArray();
    EXPECT_EQ(os.str(), "[null]");
}

TEST(Json, CompleteOnlyWhenBalanced)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    EXPECT_FALSE(w.complete());
    w.endObject();
    EXPECT_TRUE(w.complete());
}

TEST(JsonDeath, KeyOutsideObjectPanics)
{
    std::ostringstream os;
    JsonWriter w(os);
    EXPECT_DEATH(w.key("k"), "key outside");
}

TEST(JsonDeath, ValueWhereKeyExpectedPanics)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    EXPECT_DEATH(w.value(1.0), "key is expected");
}

TEST(JsonDeath, UnbalancedEndPanics)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    EXPECT_DEATH(w.endObject(), "outside an object");
}

TEST(JsonDeath, WritingPastRootPanics)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().endObject();
    EXPECT_DEATH(w.beginObject(), "complete root");
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parseJson("null")->isNull());
    EXPECT_TRUE(parseJson("true")->boolean);
    EXPECT_FALSE(parseJson("false")->boolean);
    EXPECT_DOUBLE_EQ(parseJson("-12.5e2")->number, -1250.0);
    EXPECT_EQ(parseJson("\"hi\"")->str, "hi");
}

TEST(JsonParse, NestedDocument)
{
    const auto doc = parseJson(
        R"({"counters":{"a":3},"list":[1,2,3],"flag":true})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->at("counters").at("a").number, 3.0);
    ASSERT_EQ(doc->at("list").array.size(), 3u);
    EXPECT_DOUBLE_EQ(doc->at("list").array[2].number, 3.0);
    EXPECT_TRUE(doc->at("flag").boolean);
    EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, StringEscapes)
{
    const auto doc = parseJson(R"(["a\"b\\c\n", "Aé"])");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->array[0].str, "a\"b\\c\n");
    EXPECT_EQ(doc->array[1].str, "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8)
{
    // U+1F600 as a surrogate pair.
    const auto doc = parseJson(R"("😀")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->str, "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("", &err).has_value());
    EXPECT_FALSE(parseJson("{", &err).has_value());
    EXPECT_FALSE(parseJson("[1,]", &err).has_value());
    EXPECT_FALSE(parseJson("{\"a\" 1}", &err).has_value());
    EXPECT_FALSE(parseJson("12 34", &err).has_value());
    EXPECT_FALSE(parseJson("nul", &err).has_value());
    EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .kv("name", "bench")
        .kv("pi", 3.25)
        .kv("n", std::uint64_t{42})
        .key("tags")
        .beginArray()
        .value("a")
        .value(true)
        .null()
        .endArray()
        .endObject();
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("name").str, "bench");
    EXPECT_DOUBLE_EQ(doc->at("pi").number, 3.25);
    EXPECT_DOUBLE_EQ(doc->at("n").number, 42.0);
    ASSERT_EQ(doc->at("tags").array.size(), 3u);
    EXPECT_TRUE(doc->at("tags").array[2].isNull());
}

TEST(JsonParse, AsUintTakesOnlyExactNonNegativeIntegers)
{
    const auto num = [](const char *text) {
        return parseJson(text)->asUint();
    };
    EXPECT_EQ(num("0"), 0u);
    EXPECT_EQ(num("42"), 42u);
    EXPECT_EQ(num("9007199254740992"), 9007199254740992u); // 2^53
    EXPECT_FALSE(num("9007199254740994").has_value());
    EXPECT_FALSE(num("1e30").has_value());
    EXPECT_FALSE(num("1e300").has_value());
    EXPECT_FALSE(num("-1").has_value());
    EXPECT_FALSE(num("1.5").has_value());
    EXPECT_FALSE(num("\"7\"").has_value());
}

TEST(JsonParseDeath, AtMissingKeyPanics)
{
    const auto doc = parseJson("{}");
    EXPECT_DEATH(doc->at("missing"), "missing");
}

TEST(WriteJson, BuildsAndSerializesTrees)
{
    JsonValue root = JsonValue::makeObject();
    root.set("name", JsonValue::makeString("serve"))
        .set("ok", JsonValue::makeBool(true))
        .set("none", JsonValue::makeNull());
    JsonValue tags = JsonValue::makeArray();
    tags.push(JsonValue::makeNumber(1.0))
        .push(JsonValue::makeNumber(2.5));
    root.set("tags", std::move(tags));
    EXPECT_EQ(writeJson(root),
              "{\"name\":\"serve\",\"ok\":true,\"none\":null,"
              "\"tags\":[1,2.5]}");
}

TEST(WriteJson, EscapingMatchesTheStreamingWriter)
{
    // Same corpus EscapesStrings feeds JsonWriter; both emitters
    // must agree byte for byte.
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().kv("k", nasty).endObject();

    JsonValue root = JsonValue::makeObject();
    root.set("k", JsonValue::makeString(nasty));
    EXPECT_EQ(writeJson(root), os.str());
}

TEST(WriteJson, RoundTripsThroughParseJson)
{
    JsonValue root = JsonValue::makeObject();
    root.set("int", JsonValue::makeNumber(9007199254740991.0));
    root.set("neg", JsonValue::makeNumber(-42.0));
    // A double whose shortest decimal form needs 17 digits: %.12g
    // would lose bits, to_chars must not.
    root.set("pi", JsonValue::makeNumber(3.141592653589793));
    root.set("tiny", JsonValue::makeNumber(5e-324));
    root.set("text", JsonValue::makeString("x\"\\\n\x02"));
    root.set("inf", JsonValue::makeNumber(
                        std::numeric_limits<double>::infinity()));

    const auto doc = parseJson(writeJson(root));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("int").number, 9007199254740991.0);
    EXPECT_EQ(doc->at("neg").number, -42.0);
    EXPECT_EQ(doc->at("pi").number, 3.141592653589793);
    EXPECT_EQ(doc->at("tiny").number, 5e-324);
    EXPECT_EQ(doc->at("text").str, "x\"\\\n\x02");
    // Non-finite values have no JSON spelling; null, like the
    // streaming writer.
    EXPECT_TRUE(doc->at("inf").isNull());
}

TEST(WriteJson, SecondRoundTripIsAFixedPoint)
{
    // writeJson(parseJson(writeJson(v))) == writeJson(v): the wire
    // form is canonical, which is what byte-identity between the
    // served and direct evaluation paths rests on.
    JsonValue root = JsonValue::makeObject();
    root.set("perf", JsonValue::makeNumber(0.8125));
    root.set("fit", JsonValue::makeNumber(3171.381438049162));
    root.set("app", JsonValue::makeString("MPGdec"));
    const std::string once = writeJson(root);
    const auto doc = parseJson(once);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(writeJson(*doc), once);
}

TEST(WriteJsonDeath, SetOnNonObjectPanics)
{
    JsonValue arr = JsonValue::makeArray();
    EXPECT_DEATH(arr.set("k", JsonValue::makeNull()), "set");
}

TEST(WriteJsonDeath, PushOnNonArrayPanics)
{
    JsonValue obj = JsonValue::makeObject();
    EXPECT_DEATH(obj.push(JsonValue::makeNull()), "push");
}

} // namespace
} // namespace ramp::util
