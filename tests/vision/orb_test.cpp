/** @file Unit tests for the pyramid and ORB features. */

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "datasets/slam_dataset.hpp"
#include "frame/draw.hpp"
#include "reference_orb.hpp"
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

/** Restores the startup SIMD level however the test body exits. */
struct LevelReset {
    ~LevelReset() { simd::resetLevel(); }
};

void
expectSameFeatures(const std::vector<OrbFeature> &got,
                   const std::vector<OrbFeature> &want,
                   const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        const OrbFeature &g = got[i];
        const OrbFeature &w = want[i];
        // Bitwise: no tolerance on any field.
        EXPECT_EQ(std::memcmp(&g.x, &w.x, sizeof g.x), 0) << what << " #" << i;
        EXPECT_EQ(std::memcmp(&g.y, &w.y, sizeof g.y), 0) << what << " #" << i;
        EXPECT_EQ(std::memcmp(&g.size, &w.size, sizeof g.size), 0)
            << what << " #" << i;
        EXPECT_EQ(std::memcmp(&g.angle, &w.angle, sizeof g.angle), 0)
            << what << " #" << i;
        EXPECT_EQ(std::memcmp(&g.response, &w.response, sizeof g.response),
                  0)
            << what << " #" << i;
        EXPECT_EQ(g.octave, w.octave) << what << " #" << i;
        EXPECT_EQ(g.descriptor, w.descriptor) << what << " #" << i;
    }
}

TEST(Orb, MatchesReferenceDetector)
{
    // Rendered SLAM frames, plus a small textured image whose features
    // all lie within 16 px of a border, so rotated BRIEF points and
    // orientation disks leave the image on every side.
    std::vector<std::pair<std::string, Image>> inputs;
    const SlamSequence seq{SlamSequenceConfig{}};
    for (int frame = 0; frame < 20; ++frame)
        inputs.emplace_back("slam frame " + std::to_string(frame),
                            seq.renderFrame(frame));
    Image small(97, 61);
    Rng rng(61);
    fillValueNoise(small, rng, 4.0, 0, 255);
    for (int k = 0; k < 12; ++k)
        fillRect(small,
                 Rect{static_cast<i32>(rng.uniformInt(-4, 92)),
                      static_cast<i32>(rng.uniformInt(-4, 56)), 7, 5},
                 static_cast<u8>(rng.uniformInt(0, 255)));
    inputs.emplace_back("97x61", small);

    // Every input at the default patch radius; the first frame and the
    // small image also at 4 and 20 (the radius moves only the
    // orientation disk and the feature size).
    LevelReset reset;
    for (const auto &[name, img] : inputs) {
        for (const int patch_radius : {4, 12, 20}) {
            if (patch_radius != 12 && name != "97x61" &&
                name != "slam frame 0")
                continue;
            OrbOptions opts;
            opts.patch_radius = patch_radius;
            const auto want = referenceDetectOrb(img, opts);
            ASSERT_FALSE(want.empty()) << name;
            for (const simd::Level level : simd::supportedLevels()) {
                ASSERT_TRUE(simd::setLevel(level));
                expectSameFeatures(detectOrb(img, opts), want,
                                   name + " r " +
                                       std::to_string(patch_radius) + " " +
                                       simd::levelName(level));
            }
        }
    }
}

} // namespace
} // namespace rpx
