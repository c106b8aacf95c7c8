/** @file Unit tests for the Image container. */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "frame/image.hpp"

namespace rpx {
namespace {

TEST(Image, DefaultIsEmpty)
{
    Image img;
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.pixelCount(), 0);
}

TEST(Image, AllocZeroFilled)
{
    Image img(4, 3);
    EXPECT_EQ(img.byteCount(), 12u);
    for (i32 y = 0; y < 3; ++y)
        for (i32 x = 0; x < 4; ++x)
            EXPECT_EQ(img.at(x, y), 0);
}

TEST(Image, RgbChannelLayout)
{
    Image img(2, 2, PixelFormat::Rgb8);
    EXPECT_EQ(img.channels(), 3);
    EXPECT_EQ(img.byteCount(), 12u);
    img.set(1, 0, 0, 10);
    img.set(1, 0, 1, 20);
    img.set(1, 0, 2, 30);
    EXPECT_EQ(img.at(1, 0, 0), 10);
    EXPECT_EQ(img.at(1, 0, 1), 20);
    EXPECT_EQ(img.at(1, 0, 2), 30);
    // Raw layout is interleaved.
    EXPECT_EQ(img.data()[3], 10);
    EXPECT_EQ(img.data()[4], 20);
    EXPECT_EQ(img.data()[5], 30);
}

TEST(Image, NegativeDimensionsThrow)
{
    EXPECT_THROW(Image(-1, 4), std::invalid_argument);
}

TEST(Image, AtClampedBorders)
{
    Image img(3, 3);
    img.set(0, 0, 7);
    img.set(2, 2, 9);
    EXPECT_EQ(img.atClamped(-5, -5), 7);
    EXPECT_EQ(img.atClamped(10, 10), 9);
}

TEST(Image, BilinearInterpolation)
{
    Image img(2, 1);
    img.set(0, 0, 0);
    img.set(1, 0, 100);
    EXPECT_NEAR(img.bilinear(0.5, 0.0), 50.0, 1e-9);
    EXPECT_NEAR(img.bilinear(0.25, 0.0), 25.0, 1e-9);
}

TEST(Image, CropClips)
{
    Image img(10, 10);
    img.set(9, 9, 42);
    const Image c = img.crop(Rect{8, 8, 10, 10});
    EXPECT_EQ(c.width(), 2);
    EXPECT_EQ(c.height(), 2);
    EXPECT_EQ(c.at(1, 1), 42);
}

TEST(Image, ResizeIdentity)
{
    Image img(5, 4);
    for (i32 y = 0; y < 4; ++y)
        for (i32 x = 0; x < 5; ++x)
            img.set(x, y, static_cast<u8>(10 * x + y));
    const Image same = img.resized(5, 4);
    EXPECT_EQ(same, img);
}

TEST(Image, ResizeDownUniform)
{
    Image img(8, 8, PixelFormat::Gray8, 77);
    const Image half = img.resized(4, 4);
    for (i32 y = 0; y < 4; ++y)
        for (i32 x = 0; x < 4; ++x)
            EXPECT_EQ(half.at(x, y), 77);
}

/**
 * Resize oracle: the per-pixel, per-channel loop that samples through the
 * bounds-clamped Image::bilinear / Image::atClamped accessors.
 */
Image
oracleResized(const Image &src, i32 w, i32 h, bool bilinear_filter)
{
    Image out(w, h, src.format());
    const double sx = static_cast<double>(src.width()) / w;
    const double sy = static_cast<double>(src.height()) / h;
    for (i32 y = 0; y < h; ++y) {
        for (i32 x = 0; x < w; ++x) {
            const double src_x = (x + 0.5) * sx - 0.5;
            const double src_y = (y + 0.5) * sy - 0.5;
            for (int c = 0; c < src.channels(); ++c) {
                const double v =
                    bilinear_filter
                        ? src.bilinear(src_x, src_y, c)
                        : src.atClamped(
                              static_cast<i32>(std::lround(src_x)),
                              static_cast<i32>(std::lround(src_y)), c);
                out.set(x, y, c, clampToU8(v));
            }
        }
    }
    return out;
}

TEST(Image, ResizedMatchesPerPixelOracle)
{
    Rng rng(4242);
    const std::pair<i32, i32> sources[] = {
        {37, 23}, {1, 9}, {9, 1}, {1, 1}, {64, 48}};
    const std::pair<i32, i32> targets[] = {
        {11, 7}, {80, 51}, {1, 6}, {6, 1}, {1, 1}, {37, 23}, {21, 40}};
    for (const PixelFormat fmt : {PixelFormat::Gray8, PixelFormat::Rgb8}) {
        for (const auto &[sw, sh] : sources) {
            Image src(sw, sh, fmt);
            for (u8 &v : src.data())
                v = static_cast<u8>(rng.uniformInt(0, 255));
            for (const auto &[tw, th] : targets) {
                for (const bool bilinear : {true, false}) {
                    const std::string what =
                        std::to_string(sw) + "x" + std::to_string(sh) +
                        " -> " + std::to_string(tw) + "x" +
                        std::to_string(th) + " ch " +
                        std::to_string(src.channels()) +
                        (bilinear ? " bilinear" : " nearest");
                    EXPECT_EQ(src.resized(tw, th, bilinear),
                              oracleResized(src, tw, th, bilinear))
                        << what;
                }
            }
        }
    }
}

TEST(Image, ResizeRejectsNonPositive)
{
    Image img(4, 4);
    EXPECT_THROW(img.resized(0, 4), std::invalid_argument);
}

TEST(Image, ToGrayWeights)
{
    Image rgb(1, 1, PixelFormat::Rgb8);
    rgb.set(0, 0, 0, 255); // pure red
    const Image gray = rgb.toGray();
    EXPECT_NEAR(gray.at(0, 0), 76, 1); // 0.299 * 255
}

TEST(Image, ToGrayOnGrayIsCopy)
{
    Image g(3, 3, PixelFormat::Gray8, 9);
    EXPECT_EQ(g.toGray(), g);
}

TEST(ClampToU8, Bounds)
{
    EXPECT_EQ(clampToU8(-4.0), 0);
    EXPECT_EQ(clampToU8(300.0), 255);
    EXPECT_EQ(clampToU8(127.4), 127);
    EXPECT_EQ(clampToU8(127.6), 128);
}

} // namespace
} // namespace rpx
