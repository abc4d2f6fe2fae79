/** @file Unit tests for the minimal JSON parser/writer. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"

namespace astra {
namespace json {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_EQ(parse("true").asBool(), true);
    EXPECT_EQ(parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(parse("3.5").asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(parse("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(parse("1e9").asNumber(), 1e9);
    EXPECT_DOUBLE_EQ(parse("2.5E-3").asNumber(), 2.5e-3);
    EXPECT_EQ(parse("\"hello\"").asString(), "hello");
}

TEST(Json, ParsesContainers)
{
    Value v = parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
    ASSERT_TRUE(v.isObject());
    const Array &arr = v.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[1].asNumber(), 2.0);
    EXPECT_TRUE(v.at("b").at("c").asBool());
}

TEST(Json, ParsesNestedEmptyContainers)
{
    Value v = parse(R"({"a": [], "b": {}, "c": [[], [{}]]})");
    EXPECT_TRUE(v.at("a").asArray().empty());
    EXPECT_TRUE(v.at("b").asObject().empty());
    EXPECT_EQ(v.at("c").asArray().size(), 2u);
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(parse(R"("q\"q")").asString(), "q\"q");
    EXPECT_EQ(parse(R"("s\\t")").asString(), "s\\t");
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(Json, WhitespaceTolerant)
{
    Value v = parse("  {\n  \"x\"  :\t1 ,\r\n \"y\": [ 1 , 2 ] }  ");
    EXPECT_DOUBLE_EQ(v.at("x").asNumber(), 1.0);
    EXPECT_EQ(v.at("y").asArray().size(), 2u);
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string doc =
        R"({"name":"astra","nodes":[{"id":1,"type":"compute"},)"
        R"({"id":2,"type":"comm"}],"ok":true,"scale":0.5})";
    Value v = parse(doc);
    Value again = parse(v.dump());
    EXPECT_EQ(v.dump(), again.dump());
    // Pretty output parses back to the same document too.
    EXPECT_EQ(parse(v.dump(2)).dump(), v.dump());
}

TEST(Json, SubnormalsRoundTripBitExactly)
{
    const double values[] = {
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        2.2250738585072011e-308,
        1e-310,
        -3.5e-320,
    };
    for (double x : values) {
        ASSERT_NE(std::fpclassify(x), FP_NORMAL) << x;
        std::string text = Value(x).dump();
        double back = parse(text).asNumber();
        EXPECT_EQ(std::memcmp(&back, &x, sizeof(x)), 0) << text;
    }
    EXPECT_EQ(parse("4.9e-324").asNumber(),
              std::numeric_limits<double>::denorm_min());
    // Overflow to infinity and underflow to zero stay errors.
    for (const char *bad : {"1e400", "-1e400", "1e-400", "-1e-400"})
        EXPECT_THROW(parse(bad), FatalError) << bad;
}

TEST(Json, NumbersMatchStodBitForBit)
{
    const char *table[] = {
        "0", "-0", "1", "-17", "3.5", "0.1", "1e9", "2.5E-3", "1e+2",
        "1866666666666.6667", "123456789012345678901234567890",
        "9007199254740993", "0.30000000000000004", "1.7976931348623157e308",
        "2.2250738585072014e-308", "5e-300", "-6.02214076e23",
        "1.", ".5", "-.25", "00012", "3.14159265358979323846",
    };
    for (const char *t : table) {
        double expect = std::stod(t);
        double got = parse(t).asNumber();
        EXPECT_EQ(std::memcmp(&got, &expect, sizeof(got)), 0) << t;
    }
}

TEST(Json, ReaderWalksWithoutATree)
{
    Reader r(R"( {"skip": {"x": [1, {"y": "\u00e9"}], "z": null},
                 "n": -2.5, "list": [[], [true, false]], "s": "a\"b" } )");
    std::string key;
    std::vector<std::string> keys;
    r.beginObject();
    while (r.nextKey(key)) {
        keys.push_back(key);
        if (key == "n") {
            EXPECT_EQ(r.readNumber(), -2.5);
        } else if (key == "s") {
            EXPECT_EQ(r.readString(), "a\"b");
        } else if (key == "list") {
            int inner = 0;
            r.beginArray();
            while (r.nextElement()) {
                r.beginArray();
                while (r.nextElement()) {
                    EXPECT_EQ(r.peek(), Kind::Bool);
                    r.readBool();
                    ++inner;
                }
            }
            EXPECT_EQ(inner, 2);
        } else {
            r.skipValue();
        }
    }
    r.finish();
    EXPECT_EQ(keys, (std::vector<std::string>{"skip", "n", "list", "s"}));
}

TEST(Json, ReaderChecksKindsAndSyntax)
{
    EXPECT_THROW(Reader("\"x\"").readNumber(), FatalError);
    EXPECT_THROW(Reader("1").readString(), FatalError);
    EXPECT_THROW(Reader("[1]").beginObject(), FatalError);
    EXPECT_THROW(Reader("nul").readNull(), FatalError);
    // skipValue() checks the syntax of what it skips.
    EXPECT_THROW(Reader("[1, {\"a\" 2}]").skipValue(), FatalError);
    EXPECT_THROW(Reader("[1e999]").skipValue(), FatalError);
    EXPECT_THROW(Reader("\"\\q\"").skipValue(), FatalError);
    try {
        parse("{\n  \"a\": 1,\n  \"b\": tru\n}");
        FAIL() << "no error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

TEST(Json, RepeatedKeysKeepTheLast)
{
    EXPECT_EQ(parse(R"({"a": 1, "a": [2]})").at("a").asArray().size(), 1u);
}

TEST(Json, IntegersSerializeWithoutDecimals)
{
    Value v(int64_t(42));
    EXPECT_EQ(v.dump(), "42");
    EXPECT_EQ(Value(-3).dump(), "-3");
}

TEST(Json, LookupHelpers)
{
    Value v = parse(R"({"bw": 100.5, "n": 4, "on": true, "s": "x"})");
    EXPECT_DOUBLE_EQ(v.getNumber("bw", 0.0), 100.5);
    EXPECT_EQ(v.getInt("n", 0), 4);
    EXPECT_TRUE(v.getBool("on", false));
    EXPECT_EQ(v.getString("s", ""), "x");
    EXPECT_DOUBLE_EQ(v.getNumber("missing", 7.0), 7.0);
    EXPECT_EQ(v.getInt("missing", -1), -1);
    EXPECT_FALSE(v.getBool("missing", false));
    EXPECT_EQ(v.getString("missing", "d"), "d");
}

TEST(Json, ErrorsAreUserFacing)
{
    EXPECT_THROW(parse("{"), FatalError);
    EXPECT_THROW(parse("[1,]"), FatalError);
    EXPECT_THROW(parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse("1 2"), FatalError);
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("\"unterminated"), FatalError);
    EXPECT_THROW(parse("{\"a\":1}x"), FatalError);
}

TEST(Json, KindMismatchIsFatal)
{
    Value v = parse("{\"a\": 1}");
    EXPECT_THROW(v.at("a").asString(), FatalError);
    EXPECT_THROW(v.at("missing"), FatalError);
    EXPECT_THROW(v.asArray(), FatalError);
}

TEST(Json, BuildsDocumentsProgrammatically)
{
    Value doc{Object{}};
    doc.mutableObject()["npus"] = Value(4);
    Array nodes;
    for (int i = 0; i < 3; ++i) {
        Object n;
        n["id"] = Value(i);
        nodes.push_back(Value(std::move(n)));
    }
    doc.mutableObject()["nodes"] = Value(std::move(nodes));
    Value parsed = parse(doc.dump());
    EXPECT_EQ(parsed.at("npus").asInt(), 4);
    EXPECT_EQ(parsed.at("nodes").asArray().size(), 3u);
}

TEST(Json, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/astra_json_test.json";
    Value v = parse(R"({"hello": [1, 2, {"deep": "value"}]})");
    writeFile(path, v);
    Value back = parseFile(path);
    EXPECT_EQ(back.dump(), v.dump());
    EXPECT_THROW(parseFile("/nonexistent/astra.json"), FatalError);
}

} // namespace
} // namespace json
} // namespace astra
