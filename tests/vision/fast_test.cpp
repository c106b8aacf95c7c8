/**
 * @file
 * Unit tests for the FAST corner detector; every arc length, threshold
 * and SIMD level must agree with the brute-force segment-test oracle in
 * reference_orb.cpp.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "frame/draw.hpp"
#include "reference_orb.hpp"
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

/** Restores the startup SIMD level however the test body exits. */
struct LevelReset {
    ~LevelReset() { simd::resetLevel(); }
};

TEST(Fast, MatchesSegmentTestOracleAtEverySimdLevel)
{
    // Widths whose interiors (w - 6) leave partial 16-lane tails, and
    // pixels drawn mostly from {0, 255} so the saturating differences
    // hit both ends of the byte range.
    Rng rng(2024);
    std::vector<Image> images;
    for (const i32 w : {19, 35, 69}) {
        Image img(w, 17);
        for (u8 &v : img.data()) {
            const i64 pick = rng.uniformInt(0, 3);
            v = pick == 0   ? 0
                : pick == 1 ? 255
                            : static_cast<u8>(rng.uniformInt(0, 255));
        }
        images.push_back(img);
        Image soft(w, 17);
        fillValueNoise(soft, rng, 5.0, 0, 255);
        fillRect(soft, Rect{4, 4, w / 3, 6}, 255);
        fillRect(soft, Rect{w / 2, 8, w / 3, 6}, 0);
        images.push_back(soft);
    }
    LevelReset reset;
    size_t hits = 0;
    for (const Image &img : images) {
        for (int arc = 1; arc <= 16; ++arc) {
            for (const int threshold : {1, 20, 254, 255, 256, 1000}) {
                for (const bool nonmax : {false, true}) {
                    FastOptions o;
                    o.arc_length = arc;
                    o.threshold = threshold;
                    o.nonmax = nonmax;
                    const auto want = oracleFast(img, o);
                    hits += want.size();
                    for (const simd::Level level : simd::supportedLevels()) {
                        ASSERT_TRUE(simd::setLevel(level));
                        expectSameCorners(
                            detectFast(img, o), want,
                            std::string(simd::levelName(level)) + " w " +
                                std::to_string(img.width()) + " arc " +
                                std::to_string(arc) + " t " +
                                std::to_string(threshold) +
                                (nonmax ? " nonmax" : ""));
                    }
                }
            }
        }
    }
    EXPECT_GT(hits, 0u);
}

} // namespace
} // namespace rpx
