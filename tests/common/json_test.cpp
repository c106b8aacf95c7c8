/**
 * @file
 * rpx::json reader: value model, parser edge cases, JSONL, escaping and
 * the shared number rule.
 * Every machine-readable obs format (metric snapshots, telemetry
 * journals, bench reports) flows through this parser on the way back in,
 * so the error surface is pinned down as tightly as the happy path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"

namespace rpx::json {
namespace {

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_EQ(parse("true").boolean(), true);
    EXPECT_EQ(parse("false").boolean(), false);
    EXPECT_DOUBLE_EQ(parse("0").number(), 0.0);
    EXPECT_DOUBLE_EQ(parse("-17").number(), -17.0);
    EXPECT_DOUBLE_EQ(parse("3.5e2").number(), 350.0);
    EXPECT_EQ(parse("\"hi\"").str(), "hi");
    EXPECT_EQ(parse("  \"ws\"  ").str(), "ws");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parse("\"a\\\"b\"").str(), "a\"b");
    EXPECT_EQ(parse("\"line\\nbreak\\ttab\"").str(), "line\nbreak\ttab");
    EXPECT_EQ(parse("\"back\\\\slash\"").str(), "back\\slash");
    EXPECT_EQ(parse("\"\\u0041\"").str(), "A");
}

TEST(JsonParse, ArraysAndObjects)
{
    const Value v = parse(R"({"a": [1, 2, 3], "b": {"c": "d"}, "n": null})");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.at("a").array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").array()[2].number(), 3.0);
    EXPECT_EQ(v.at("b").at("c").str(), "d");
    EXPECT_TRUE(v.at("n").isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 42.0), 42.0);
    EXPECT_EQ(v.stringOr("missing", "dflt"), "dflt");
}

TEST(JsonParse, MalformedInputThrows)
{
    EXPECT_THROW(parse(""), std::runtime_error);
    EXPECT_THROW(parse("{"), std::runtime_error);
    EXPECT_THROW(parse("[1,]"), std::runtime_error);
    EXPECT_THROW(parse("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parse("tru"), std::runtime_error);
    EXPECT_THROW(parse("1 2"), std::runtime_error); // trailing garbage
}

TEST(JsonParse, KindMismatchThrows)
{
    const Value v = parse(R"({"a": 1})");
    EXPECT_THROW(v.str(), std::runtime_error);
    EXPECT_THROW(v.at("a").str(), std::runtime_error);
    EXPECT_THROW(v.at("missing"), std::runtime_error);
    EXPECT_DOUBLE_EQ(v.at("a").number(), 1.0);
}

TEST(JsonParseLines, SkipsBlanksAndReportsLineNumbers)
{
    const auto values = parseLines("{\"a\":1}\n\n  \n{\"a\":2}\n");
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[1].at("a").number(), 2.0);

    try {
        parseLines("{\"ok\":1}\n{broken\n");
        FAIL() << "expected malformed line to throw";
    } catch (const std::runtime_error &e) {
        // The 1-based line number of the bad line must be in the message.
        EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
    }
}

TEST(JsonEscape, RoundTripsThroughParse)
{
    const std::string nasty = "q\"uote \\ back\nnew\ttab\x01了";
    std::string quoted = "\"";
    quoted += escape(nasty);
    quoted += '"';
    const Value v = parse(quoted);
    EXPECT_EQ(v.str(), nasty);
}

/** The telemetry journal's rendering, which every writer now shares. */
TEST(JsonNumber, MatchesJournalRendering)
{
    EXPECT_EQ(number(0.0), "0");
    EXPECT_EQ(number(-0.0), "0");
    EXPECT_EQ(number(42.0), "42");
    EXPECT_EQ(number(-7.0), "-7");
    EXPECT_EQ(number(9007199254740991.0), "9007199254740991");
    EXPECT_EQ(number(9007199254740992.0), "9007199254740992");
    EXPECT_EQ(number(1e300), "1.0000000000000001e+300");
    EXPECT_EQ(number(0.5), "0.5");
    EXPECT_EQ(number(0.1), "0.10000000000000001");
    EXPECT_EQ(number(1403461.25), "1403461.25");
    EXPECT_EQ(number(-2.75e-7), "-2.7500000000000001e-07");
    EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "0");
    EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonNumber, RoundTripsThroughParse)
{
    for (const double v : {0.1, 1.0 / 3.0, 1403461.25, 6.02214076e23,
                           -123456.789, 4.9e-324})
        EXPECT_EQ(parse(number(v)).number(), v) << number(v);
}

} // namespace
} // namespace rpx::json
