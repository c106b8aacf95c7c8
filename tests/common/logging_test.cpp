/** @file Unit tests for logging levels and the error helpers. */

#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace rpx {
namespace {

/** Capture std::cerr for the duration of a scope. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

  private:
    std::ostringstream buffer_;
    std::streambuf *old_;
};

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Match `shape` against the start of [s, end); returns the end of the
 * match, or nullptr. In `shape`, '9' is exactly one digit, '#' one or
 * more digits, '*' a run of non-newline characters (greedy, so only
 * '\n' or the end of `shape` may follow it); every other character is
 * literal.
 */
const char *
matchShape(const char *s, const char *end, const char *shape)
{
    for (; *shape != '\0'; ++shape) {
        switch (*shape) {
        case '9':
            if (s == end || !isDigit(*s))
                return nullptr;
            ++s;
            break;
        case '#':
            if (s == end || !isDigit(*s))
                return nullptr;
            while (s != end && isDigit(*s))
                ++s;
            break;
        case '*':
            while (s != end && *s != '\n')
                ++s;
            break;
        default:
            if (s == end || *s != *shape)
                return nullptr;
            ++s;
        }
    }
    return s;
}

/** True when all of `text` matches `shape`. */
bool
fullMatch(const std::string &text, const char *shape)
{
    const char *end = text.data() + text.size();
    return matchShape(text.data(), end, shape) == end;
}

/** "[HH:MM:SS.mmm] " wall-clock prefix every emitted line carries. */
constexpr const char *kStamp = "[99:99:99.999] ";
/** One whole stamped line. */
constexpr const char *kStampedLine = "[99:99:99.999] *\n";

/** Strip the timestamp prefixes so tests can compare message content. */
std::string
withoutStamps(const std::string &text)
{
    std::string out;
    const char *end = text.data() + text.size();
    for (const char *s = text.data(); s != end;) {
        if (const char *after = matchShape(s, end, kStamp))
            s = after;
        else
            out += *s++;
    }
    return out;
}

class LoggingTest : public ::testing::Test
{
  protected:
    void TearDown() override { setLogLevel(LogLevel::Warn); }
};

TEST_F(LoggingTest, WarnEmittedAtDefaultLevel)
{
    CerrCapture capture;
    warn("disk ", 42, " is wobbly");
    EXPECT_EQ(withoutStamps(capture.text()), "warn: disk 42 is wobbly\n");
    EXPECT_TRUE(fullMatch(capture.text(), kStampedLine)) << capture.text();
}

TEST_F(LoggingTest, InfoSuppressedAtDefaultLevel)
{
    CerrCapture capture;
    inform("routine message");
    debug("even more routine");
    EXPECT_TRUE(capture.text().empty());
}

TEST_F(LoggingTest, DebugLevelEmitsEverything)
{
    setLogLevel(LogLevel::Debug);
    CerrCapture capture;
    debug("d");
    inform("i");
    warn("w");
    EXPECT_EQ(withoutStamps(capture.text()),
              "debug: d\ninfo: i\nwarn: w\n");
}

TEST_F(LoggingTest, SilentSuppressesAll)
{
    setLogLevel(LogLevel::Silent);
    CerrCapture capture;
    warn("nothing to see");
    EXPECT_TRUE(capture.text().empty());
    EXPECT_EQ(logLevel(), LogLevel::Silent);
}

TEST_F(LoggingTest, ParseLogLevelNames)
{
    using detail::parseLogLevel;
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Warn), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("INFO", LogLevel::Warn), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("Warn", LogLevel::Silent), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Warn), LogLevel::Silent);
    // Unknown and missing names fall back (RPX_LOG_LEVEL typos are safe).
    EXPECT_EQ(parseLogLevel("verbose", LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Info), LogLevel::Info);
}

TEST_F(LoggingTest, ParseLogLevelWarnsOnGarbage)
{
    {
        CerrCapture capture;
        EXPECT_EQ(detail::parseLogLevel("verbse", LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_NE(capture.text().find("unrecognized RPX_LOG_LEVEL"),
                  std::string::npos);
        EXPECT_NE(capture.text().find("verbse"), std::string::npos);
    }
    {
        // An unset/empty variable is not a typo: stays quiet.
        CerrCapture capture;
        EXPECT_EQ(detail::parseLogLevel(nullptr, LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_EQ(detail::parseLogLevel("", LogLevel::Warn),
                  LogLevel::Warn);
        EXPECT_TRUE(capture.text().empty());
    }
}

TEST_F(LoggingTest, ConcurrentWarnsDoNotInterleaveWithinLines)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    CerrCapture capture;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([i] {
            for (int k = 0; k < kPerThread; ++k)
                warn("thread ", i, " message ", k, " end");
        });
    }
    for (auto &t : threads)
        t.join();

    // Every line is complete: stamped, tagged, and terminated. A torn
    // write would produce a line that fails the pattern.
    std::istringstream lines(capture.text());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(fullMatch(line,
                              "[99:99:99.999] warn: thread # message # end"))
            << line;
        ++count;
    }
    EXPECT_EQ(count, kThreads * kPerThread);
}

TEST(ErrorHelpers, ThrowInvalidFormatsMessage)
{
    try {
        throwInvalid("bad value ", 7, " for ", "knob");
        FAIL() << "should have thrown";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "bad value 7 for knob");
    }
}

TEST(ErrorHelpers, ThrowRuntimeFormatsMessage)
{
    try {
        throwRuntime("stage ", 2, " failed");
        FAIL() << "should have thrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "stage 2 failed");
    }
}

TEST(ErrorHelpers, AssertMacroThrowsWithLocation)
{
    try {
        RPX_ASSERT(1 == 2, "math broke");
        FAIL() << "should have thrown";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("math broke"), std::string::npos);
        EXPECT_NE(msg.find("logging_test.cpp"), std::string::npos);
    }
    // The passing case is silent.
    EXPECT_NO_THROW(RPX_ASSERT(true, "fine"));
}

} // namespace
} // namespace rpx
