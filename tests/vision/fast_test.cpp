/**
 * @file
 * Unit tests for the FAST corner detector, plus a brute-force segment-test
 * oracle that every arc length and threshold must agree with.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "vision/fast.hpp"

namespace rpx {
namespace {

TEST(Fast, FlatImageHasNoCorners)
{
    Image img(32, 32, PixelFormat::Gray8, 128);
    EXPECT_TRUE(detectFast(img).empty());
}

TEST(Fast, BrightSquareCornersDetected)
{
    Image img(40, 40, PixelFormat::Gray8, 20);
    fillRect(img, Rect{10, 10, 16, 16}, 220);
    const auto corners = detectFast(img);
    ASSERT_FALSE(corners.empty());
    // Each detected corner should be near one of the square's corners.
    for (const auto &c : corners) {
        const bool near_corner =
            (std::abs(c.x - 10) <= 2 || std::abs(c.x - 25) <= 2) &&
            (std::abs(c.y - 10) <= 2 || std::abs(c.y - 25) <= 2);
        EXPECT_TRUE(near_corner) << c.x << "," << c.y;
    }
}

TEST(Fast, DarkCornerAlsoDetected)
{
    Image img(40, 40, PixelFormat::Gray8, 220);
    fillRect(img, Rect{12, 12, 12, 12}, 15);
    EXPECT_FALSE(detectFast(img).empty());
}

TEST(Fast, EdgesAreNotCorners)
{
    // A long straight vertical edge should trigger (far) fewer detections
    // than an actual corner pattern.
    Image img(40, 40, PixelFormat::Gray8, 20);
    fillRect(img, Rect{20, 0, 20, 40}, 220);
    const auto corners = detectFast(img);
    EXPECT_LE(corners.size(), 2u);
}

TEST(Fast, ThresholdControlsSensitivity)
{
    Image img(40, 40, PixelFormat::Gray8, 100);
    fillRect(img, Rect{15, 15, 10, 10}, 130); // weak 30-level corner
    FastOptions lo;
    lo.threshold = 12;
    FastOptions hi;
    hi.threshold = 60;
    EXPECT_FALSE(detectFast(img, lo).empty());
    EXPECT_TRUE(detectFast(img, hi).empty());
}

TEST(Fast, NonmaxReducesDuplicates)
{
    // High-frequency noise fires clusters of adjacent segment-test hits;
    // non-maximum suppression must thin them.
    Image img(64, 64);
    Rng rng(12);
    fillValueNoise(img, rng, 3.0, 0, 255);
    FastOptions with;
    with.threshold = 12;
    FastOptions without = with;
    without.nonmax = false;
    const auto a = detectFast(img, with);
    const auto b = detectFast(img, without);
    ASSERT_FALSE(a.empty());
    EXPECT_LT(a.size(), b.size());
}

TEST(Fast, BorderRespected)
{
    Image img(16, 16, PixelFormat::Gray8, 0);
    fillRect(img, Rect{0, 0, 3, 3}, 255);
    for (const auto &c : detectFast(img)) {
        EXPECT_GE(c.x, 3);
        EXPECT_GE(c.y, 3);
        EXPECT_LT(c.x, 13);
        EXPECT_LT(c.y, 13);
    }
}

TEST(Fast, OptionValidation)
{
    Image img(16, 16);
    FastOptions bad;
    bad.threshold = 0;
    EXPECT_THROW(detectFast(img, bad), std::invalid_argument);
    bad.threshold = 10;
    bad.arc_length = 17;
    EXPECT_THROW(detectFast(img, bad), std::invalid_argument);
    Image rgb(8, 8, PixelFormat::Rgb8);
    EXPECT_THROW(detectFast(rgb), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Oracle: the per-pixel segment test with bounds-checked reads, a plain
// circular run count and no compass-point quick reject, followed by the
// same 3x3 non-maximum suppression rule.

constexpr i32 kOracleRing[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
};

std::vector<Corner>
oracleFast(const Image &img, const FastOptions &options)
{
    const int t = options.threshold;
    std::vector<Corner> raw;
    for (i32 y = 3; y < img.height() - 3; ++y) {
        for (i32 x = 3; x < img.width() - 3; ++x) {
            const int center = img.at(x, y);
            int ring[16];
            for (int i = 0; i < 16; ++i)
                ring[i] = img.at(x + kOracleRing[i][0],
                                 y + kOracleRing[i][1]);
            bool corner = false;
            for (const bool bright : {true, false}) {
                // Longest circular run: start at every ring position.
                for (int start = 0; start < 16 && !corner; ++start) {
                    int run = 0;
                    while (run < 16) {
                        const int v = ring[(start + run) % 16];
                        if (bright ? v < center + t : v > center - t)
                            break;
                        ++run;
                    }
                    corner = run >= options.arc_length;
                }
            }
            if (!corner)
                continue;
            float score = 0.0f;
            for (int i = 0; i < 16; ++i)
                score += static_cast<float>(std::abs(ring[i] - center));
            raw.push_back({x, y, score});
        }
    }
    if (!options.nonmax)
        return raw;
    std::vector<Corner> out;
    for (const Corner &c : raw) {
        bool is_max = true;
        for (const Corner &o : raw) {
            const i32 dx = o.x - c.x, dy = o.y - c.y;
            if ((dx == 0 && dy == 0) || std::abs(dx) > 1 || std::abs(dy) > 1)
                continue;
            if (o.score > c.score ||
                (o.score == c.score && (dy < 0 || (dy == 0 && dx < 0))))
                is_max = false;
        }
        if (is_max)
            out.push_back(c);
    }
    return out;
}

void
expectSameCorners(const std::vector<Corner> &got,
                  const std::vector<Corner> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].x, want[i].x) << what << " #" << i;
        EXPECT_EQ(got[i].y, want[i].y) << what << " #" << i;
        EXPECT_EQ(got[i].score, want[i].score) << what << " #" << i;
    }
}

TEST(Fast, MatchesSegmentTestOracleForEveryArc)
{
    // Random pixels fire every arc length; a textured scene (squares,
    // a disc and soft noise) gives real corners and edges.
    Image random(48, 40);
    Rng rng(77);
    for (u8 &v : random.data())
        v = static_cast<u8>(rng.uniformInt(0, 255));
    Image textured(48, 40);
    fillValueNoise(textured, rng, 6.0, 60, 140);
    fillRect(textured, Rect{6, 5, 12, 10}, 230);
    fillRect(textured, Rect{26, 20, 14, 12}, 10);
    fillCircle(textured, 30, 9, 5, 200);

    size_t hits = 0;
    for (const Image *img : {&random, &textured}) {
        for (int arc = 1; arc <= 16; ++arc) {
            for (const int threshold : {1, 20, 60}) {
                for (const bool nonmax : {false, true}) {
                    FastOptions o;
                    o.arc_length = arc;
                    o.threshold = threshold;
                    o.nonmax = nonmax;
                    const auto want = oracleFast(*img, o);
                    hits += want.size();
                    expectSameCorners(
                        detectFast(*img, o), want,
                        (img == &random ? std::string("random")
                                        : std::string("textured")) +
                            " arc " + std::to_string(arc) + " t " +
                            std::to_string(threshold) +
                            (nonmax ? " nonmax" : ""));
                }
            }
        }
    }
    EXPECT_GT(hits, 0u);
}

} // namespace
} // namespace rpx
