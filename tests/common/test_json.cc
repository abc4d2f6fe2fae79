/** @file Unit tests for the minimal JSON parser/writer. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "token_splits.h"

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

using testing_json::errorOf;
using testing_json::Lexed;
using testing_json::Tok;
using testing_json::writeTemp;

constexpr size_t kWindow = Reader::kWindowBytes;

/** Seeded string: letters, quotes, backslashes, control characters
 *  (written as \u escapes) and UTF-8 bytes. */
std::string
randomString(Rng &rng, size_t len)
{
    static const char *const kPieces[] = {
        "a", "b", "Z", "7", " ", "\"", "\\", "/", "\n", "\t", "\x01",
        "\x1f", "\xc3\xa9",
    };
    const int64_t n = int64_t(std::size(kPieces));
    std::string s;
    while (s.size() < len)
        s += kPieces[rng.uniformInt(0, n - 1)];
    return s;
}

/** A seeded value: short strings full of escapes, a rare long one,
 *  exponent numbers, integers, literals and small containers. */
Value
randomValue(Rng &rng, int depth)
{
    switch (rng.uniformInt(0, depth < 2 ? 6 : 4)) {
      case 0: {
        bool long_string = rng.uniformInt(0, 99) == 0;
        return Value(randomString(rng, long_string ? 1000 : 4));
      }
      case 1:
        return Value(rng.uniform(1.0, 10.0) *
                     std::pow(10.0, double(rng.uniformInt(-300, 300))));
      case 2: return Value(int64_t(rng.uniformInt(-1000000, 1000000)));
      case 3: return Value(rng.uniformInt(0, 1) == 1);
      case 4: return Value();
      case 5: {
        Array a;
        for (int64_t n = rng.uniformInt(0, 4); n > 0; --n)
            a.push_back(randomValue(rng, depth + 1));
        return Value(std::move(a));
      }
      default: {
        Object o;
        for (int64_t n = rng.uniformInt(0, 4); n > 0; --n)
            o[randomString(rng, 2)] = randomValue(rng, depth + 1);
        return Value(std::move(o));
      }
    }
}

/** A seeded array of at least @p min_bytes compact bytes. */
Value
randomDocument(uint64_t seed, size_t min_bytes)
{
    Rng rng(seed);
    Array items;
    size_t bytes = 0;
    while (bytes < min_bytes) {
        items.push_back(randomValue(rng, 0));
        bytes += items.back().dump().size() + 1;
    }
    return Value(std::move(items));
}

/** Whitespace of @p n bytes, cycling through every whitespace byte. */
std::string
leadingSpace(size_t n)
{
    std::string s;
    for (size_t i = 0; i < n; ++i)
        s += " \t\r\n"[i % 4];
    return s;
}

TEST(JsonFile, StreamedDocumentsMatchTheInMemoryParse)
{
    Value doc = randomDocument(17, 2 * kWindow + 1000);
    std::set<Tok> split;
    for (int indent : {-1, 2}) {
        const std::string text = doc.dump(indent);
        ASSERT_GT(text.size(), 2 * kWindow);
        const std::string expect = parse(text).dump();
        ASSERT_EQ(expect, doc.dump());
        Lexed lexed(text);
        for (size_t shift = 0; shift < 64; ++shift) {
            std::string path = writeTemp("astra_json_split.json",
                                         leadingSpace(shift) + text);
            EXPECT_EQ(parseFile(path).dump(), expect)
                << "indent " << indent << " shift " << shift;
            if (Tok k; lexed.splitAt(kWindow - shift, k))
                split.insert(k);
        }
    }
    // The first refill fell inside every kind of multi-byte token.
    EXPECT_EQ(split, (std::set<Tok>{Tok::Space, Tok::String, Tok::Escape,
                                    Tok::UEscape, Tok::Number,
                                    Tok::Literal}));
}

/** parseFile and parse of @p text agree, value or error message. */
void
expectSameParse(const std::string &text)
{
    std::string path = writeTemp("astra_json_edge.json", text);
    std::string file_err, mem_err, file_dump, mem_dump;
    file_err = errorOf([&] { file_dump = parseFile(path).dump(); });
    mem_err = errorOf([&] { mem_dump = parse(text).dump(); });
    EXPECT_EQ(file_err, mem_err);
    EXPECT_EQ(file_dump, mem_dump);
}

/** @p token placed so that the first refill falls after its
 *  @p head bytes, inside a one-key document. */
std::string
splitDocument(const std::string &token, size_t head)
{
    std::string open = "{\"k\": ";
    return open + std::string(kWindow - head - open.size(), ' ') + token +
           "}";
}

TEST(JsonFile, TokensSplitExactlyAtARefill)
{
    // A \u escape split after "\u00", a number split inside its
    // exponent, a literal split after "tr".
    expectSameParse(splitDocument("\"ab\\u00e9cd\"", 7));
    expectSameParse(splitDocument("-12.5e-3", 6));
    expectSameParse(splitDocument("true", 2));
    Value v = parseFile(writeTemp("astra_json_edge.json",
                                  splitDocument("\"ab\\u00e9cd\"", 7)));
    EXPECT_EQ(v.at("k").asString(), "ab\xc3\xa9"
                                    "cd");
    // A CRLF split between \r and \n, then an error whose line and
    // column count both bytes.
    std::string crlf = "{\"k\":" + std::string(kWindow - 6, ' ') +
                       "\r\n \"v\" x}";
    ASSERT_EQ(crlf[kWindow - 1], '\r');
    expectSameParse(crlf);
    EXPECT_EQ(errorOf([&] {
                  parseFile(writeTemp("astra_json_edge.json", crlf));
              }),
              "json parse error at line 2 col 7: expected ',' or '}' in "
              "object");
}

TEST(JsonFile, TokensLongerThanTheWindow)
{
    // A string streams through the window; a number grows it.
    std::string name(kWindow + 12345, 'n');
    name[kWindow / 2] = '\x01';
    Value doc(Object{{"name", Value(name)}});
    EXPECT_EQ(parseFile(writeTemp("astra_json_long.json", doc.dump()))
                  .at("name")
                  .asString(),
              name);
    std::string mantissa = "1." + std::string(2 * kWindow + 7, '0') + "1";
    expectSameParse("[" + mantissa + "e2]");
    EXPECT_EQ(parseFile(writeTemp("astra_json_long.json", mantissa + "e2"))
                  .asNumber(),
              100.0);
    // A bad number that long is named in full, as in memory.
    expectSameParse(mantissa + "e");
}

TEST(JsonFile, ErrorsMatchTheInMemoryParse)
{
    std::string body;
    while (body.size() < 2 * kWindow)
        body += "{\"a\": [1, 2.5e3, true, null],\n \"s\": \"x\\u0041\"},\n";
    // A file that ends inside a string.
    const std::string open_string = "[" + body + "\"unterminated";
    expectSameParse(open_string);
    EXPECT_NE(errorOf([&] { parse(open_string); })
                  .find("unexpected end of input"),
              std::string::npos);
    // A syntax error in the last window.
    expectSameParse("[" + body + "{\"a\" 1}]");
    expectSameParse("[" + body + "tru]");
    expectSameParse("[" + body + "1]  x");
    // Errors on lines that span refills, the first line and a later.
    expectSameParse(std::string(kWindow + 5, ' ') + "x");
    expectSameParse("[\n" + std::string(2 * kWindow, ' ') + "1 2]");
    // A missing file.
    EXPECT_EQ(errorOf([] { parseFile("/nonexistent/astra.json"); }),
              "json: cannot open '/nonexistent/astra.json'");
}

} // namespace
} // namespace json
} // namespace astra
