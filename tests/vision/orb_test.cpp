/** @file Unit tests for the pyramid and ORB features. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "vision/orb.hpp"

namespace rpx {
namespace {

Image
texturedScene(u64 seed)
{
    Image img(128, 96);
    Rng rng(seed);
    fillValueNoise(img, rng, 40.0, 80, 120);
    fillCheckerboard(img, 1, 0, 0); // no-op reset guard (keeps API covered)
    Rng rng2 = rng.fork(9);
    fillValueNoise(img, rng2, 50.0, 90, 130);
    Image patch(16, 16);
    fillCheckerboard(patch, 4, 30, 220);
    blit(img, patch, 30, 30);
    Image patch2(20, 20);
    fillCheckerboard(patch2, 5, 10, 240);
    blit(img, patch2, 80, 50);
    return img;
}

TEST(Pyramid, LevelGeometry)
{
    Image base(120, 90);
    PyramidOptions opts;
    opts.levels = 3;
    opts.scale_factor = 1.5;
    ImagePyramid pyr(base, opts);
    ASSERT_EQ(pyr.levels(), 3u);
    EXPECT_EQ(pyr.level(0).image.width(), 120);
    EXPECT_EQ(pyr.level(1).image.width(), 80);
    EXPECT_EQ(pyr.level(2).image.width(), 53);
    EXPECT_DOUBLE_EQ(pyr.level(0).scale, 1.0);
    EXPECT_NEAR(pyr.level(2).scale, 2.25, 1e-12);
}

TEST(Pyramid, StopsAtMinDimension)
{
    Image base(40, 40);
    PyramidOptions opts;
    opts.levels = 10;
    opts.min_dimension = 20;
    ImagePyramid pyr(base, opts);
    EXPECT_LT(pyr.levels(), 10u);
    for (size_t i = 0; i < pyr.levels(); ++i)
        EXPECT_GE(pyr.level(i).image.width(), 20);
}

TEST(Pyramid, ToBaseCoordinates)
{
    Image base(100, 100);
    PyramidOptions opts;
    opts.levels = 2;
    opts.scale_factor = 2.0;
    ImagePyramid pyr(base, opts);
    const Point p = pyr.toBase(1, 10, 20);
    EXPECT_EQ(p.x, 20);
    EXPECT_EQ(p.y, 40);
}

TEST(Pyramid, RejectsBadOptions)
{
    Image base(32, 32);
    PyramidOptions opts;
    opts.scale_factor = 1.0;
    EXPECT_THROW(ImagePyramid(base, opts), std::invalid_argument);
}

TEST(BoxBlur, SmoothsStep)
{
    Image img(9, 3, PixelFormat::Gray8, 0);
    fillRect(img, Rect{5, 0, 4, 3}, 90);
    const Image blurred = boxBlur3(img);
    // The step edge spreads: pixel left of the edge gains intensity.
    EXPECT_GT(blurred.at(4, 1), 0);
    EXPECT_LT(blurred.at(5, 1), 90);
}

/** Box-blur oracle: both passes through the clamped accessor. */
Image
oracleBoxBlur3(const Image &gray)
{
    Image tmp(gray.width(), gray.height(), PixelFormat::Gray8);
    Image out(gray.width(), gray.height(), PixelFormat::Gray8);
    for (i32 y = 0; y < gray.height(); ++y)
        for (i32 x = 0; x < gray.width(); ++x)
            tmp.set(x, y,
                    static_cast<u8>((gray.atClamped(x - 1, y) +
                                     gray.atClamped(x, y) +
                                     gray.atClamped(x + 1, y)) /
                                    3));
    for (i32 y = 0; y < gray.height(); ++y)
        for (i32 x = 0; x < gray.width(); ++x)
            out.set(x, y,
                    static_cast<u8>((tmp.atClamped(x, y - 1) +
                                     tmp.atClamped(x, y) +
                                     tmp.atClamped(x, y + 1)) /
                                    3));
    return out;
}

TEST(BoxBlur, MatchesClampedOracle)
{
    Rng rng(31);
    for (const i32 w : {1, 2, 3, 17}) {
        for (const i32 h : {1, 2, 3, 11}) {
            Image img(w, h);
            for (u8 &v : img.data())
                v = static_cast<u8>(rng.uniformInt(0, 255));
            EXPECT_EQ(boxBlur3(img), oracleBoxBlur3(img))
                << w << "x" << h;
        }
    }
}

TEST(Orb, DetectsFeaturesOnTexture)
{
    const auto features = detectOrb(texturedScene(3));
    EXPECT_GT(features.size(), 4u);
    for (const auto &f : features) {
        EXPECT_GE(f.x, 0.0);
        EXPECT_GE(f.y, 0.0);
        EXPECT_GT(f.size, 0.0f);
        EXPECT_GE(f.octave, 0);
    }
}

TEST(Orb, MaxFeaturesRespected)
{
    OrbOptions opts;
    opts.max_features = 5;
    const auto features = detectOrb(texturedScene(3), opts);
    EXPECT_LE(features.size(), 5u);
}

TEST(Orb, DescriptorsStableAcrossRuns)
{
    const auto a = detectOrb(texturedScene(3));
    const auto b = detectOrb(texturedScene(3));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].descriptor, b[i].descriptor);
}

TEST(Orb, DescriptorsMatchAcrossSmallTranslation)
{
    // The same texture shifted by 2px should match with low Hamming
    // distance for most features.
    Image scene = texturedScene(5);
    Image shifted(scene.width(), scene.height());
    blit(shifted, scene, 2, 0);
    const auto fa = detectOrb(scene);
    const auto fb = detectOrb(shifted);
    ASSERT_FALSE(fa.empty());
    ASSERT_FALSE(fb.empty());
    int good = 0;
    for (const auto &a : fa) {
        int best = 257;
        for (const auto &b : fb)
            best = std::min(best, hammingDistance(a.descriptor,
                                                  b.descriptor));
        if (best <= 40)
            ++good;
    }
    EXPECT_GT(good, static_cast<int>(fa.size() / 3));
}

TEST(Orb, HammingDistanceBasics)
{
    Descriptor a{}, b{};
    EXPECT_EQ(hammingDistance(a, b), 0);
    b[0] = 0xff;
    EXPECT_EQ(hammingDistance(a, b), 8);
    for (auto &byte : b)
        byte = 0xff;
    EXPECT_EQ(hammingDistance(a, b), 256);
}

TEST(Orb, RejectsBadInput)
{
    Image rgb(32, 32, PixelFormat::Rgb8);
    EXPECT_THROW(detectOrb(rgb), std::invalid_argument);
    OrbOptions opts;
    opts.max_features = 0;
    Image gray(32, 32);
    EXPECT_THROW(detectOrb(gray, opts), std::invalid_argument);
}

} // namespace
} // namespace rpx
