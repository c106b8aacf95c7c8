/** @file Unit tests for the EncMask and per-row offsets metadata. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/encmask.hpp"

namespace rpx {
namespace {

TEST(EncMask, DefaultsToNonRegional)
{
    EncMask mask(8, 4);
    for (i32 y = 0; y < 4; ++y)
        for (i32 x = 0; x < 8; ++x)
            EXPECT_EQ(mask.at(x, y), PixelCode::N);
}

TEST(EncMask, SetAndGetAllCodes)
{
    EncMask mask(4, 1);
    mask.set(0, 0, PixelCode::N);
    mask.set(1, 0, PixelCode::St);
    mask.set(2, 0, PixelCode::Sk);
    mask.set(3, 0, PixelCode::R);
    EXPECT_EQ(mask.at(0, 0), PixelCode::N);
    EXPECT_EQ(mask.at(1, 0), PixelCode::St);
    EXPECT_EQ(mask.at(2, 0), PixelCode::Sk);
    EXPECT_EQ(mask.at(3, 0), PixelCode::R);
}

TEST(EncMask, OverwriteCode)
{
    EncMask mask(2, 2);
    mask.set(1, 1, PixelCode::R);
    mask.set(1, 1, PixelCode::St);
    EXPECT_EQ(mask.at(1, 1), PixelCode::St);
    // Neighbours untouched.
    EXPECT_EQ(mask.at(0, 1), PixelCode::N);
}

TEST(EncMask, TwoBitsPerPixelPacking)
{
    // §4.1.2: the EncMask occupies 2 bits per pixel — ~500 KB for a 1080p
    // frame, 8% of the original (3-byte RGB) frame data.
    EncMask mask(1920, 1080);
    EXPECT_EQ(mask.packedBytes(), 1920u * 1080u / 4u);
    EXPECT_NEAR(static_cast<double>(mask.packedBytes()) / 1024.0, 500.0,
                20.0);
    const double overhead = static_cast<double>(mask.packedBytes()) /
                            (1920.0 * 1080.0 * 3.0);
    EXPECT_NEAR(overhead, 0.08, 0.01); // "roughly 8%"
}

TEST(EncMask, EncodedBeforeCountsOnlyR)
{
    EncMask mask(6, 1);
    mask.set(0, 0, PixelCode::R);
    mask.set(1, 0, PixelCode::St);
    mask.set(2, 0, PixelCode::R);
    mask.set(3, 0, PixelCode::Sk);
    mask.set(4, 0, PixelCode::R);
    EXPECT_EQ(mask.encodedBefore(0, 0), 0u);
    EXPECT_EQ(mask.encodedBefore(1, 0), 1u);
    EXPECT_EQ(mask.encodedBefore(3, 0), 2u);
    EXPECT_EQ(mask.encodedBefore(5, 0), 3u);
    EXPECT_EQ(mask.encodedInRow(0), 3u);
}

TEST(EncMask, Histogram)
{
    EncMask mask(4, 2);
    mask.set(0, 0, PixelCode::R);
    mask.set(1, 0, PixelCode::R);
    mask.set(2, 0, PixelCode::St);
    mask.set(0, 1, PixelCode::Sk);
    const auto h = mask.histogram();
    EXPECT_EQ(h[static_cast<size_t>(PixelCode::N)], 4u);
    EXPECT_EQ(h[static_cast<size_t>(PixelCode::St)], 1u);
    EXPECT_EQ(h[static_cast<size_t>(PixelCode::Sk)], 1u);
    EXPECT_EQ(h[static_cast<size_t>(PixelCode::R)], 2u);
}

TEST(EncMask, CodeNames)
{
    EXPECT_STREQ(pixelCodeName(PixelCode::N), "N");
    EXPECT_STREQ(pixelCodeName(PixelCode::St), "St");
    EXPECT_STREQ(pixelCodeName(PixelCode::Sk), "Sk");
    EXPECT_STREQ(pixelCodeName(PixelCode::R), "R");
}

TEST(RowOffsets, FromMaskPrefixSums)
{
    EncMask mask(4, 3);
    mask.set(0, 0, PixelCode::R);
    mask.set(1, 0, PixelCode::R);
    mask.set(2, 1, PixelCode::R);
    const RowOffsets offsets(mask);
    EXPECT_EQ(offsets.offsetOf(0), 0u);
    EXPECT_EQ(offsets.offsetOf(1), 2u);
    EXPECT_EQ(offsets.offsetOf(2), 3u);
    EXPECT_EQ(offsets.total(), 3u);
    EXPECT_EQ(offsets.height(), 3);
}

TEST(RowOffsets, IncrementalConstruction)
{
    RowOffsets offsets(3);
    offsets.setRowCount(0, 5);
    offsets.setRowCount(1, 0);
    offsets.setRowCount(2, 7);
    EXPECT_EQ(offsets.offsetOf(0), 0u);
    EXPECT_EQ(offsets.offsetOf(1), 5u);
    EXPECT_EQ(offsets.offsetOf(2), 5u);
    EXPECT_EQ(offsets.total(), 12u);
}

TEST(EncMask, AsciiRendering)
{
    EncMask mask(8, 8);
    for (i32 y = 0; y < 4; ++y)
        for (i32 x = 0; x < 4; ++x)
            mask.set(x, y, PixelCode::R);
    for (i32 y = 4; y < 8; ++y)
        for (i32 x = 4; x < 8; ++x)
            mask.set(x, y, PixelCode::St);
    const std::string art = maskToAscii(mask, 4);
    EXPECT_EQ(art, "#.\n.:\n");
    EXPECT_THROW(maskToAscii(mask, 0), std::invalid_argument);
}

TEST(EncMask, FillRunAndMarkRMatchPerPixelSet)
{
    // Odd widths put run ends at every bit offset inside a byte; the
    // runs are written over a non-zero mask so a stray bit would show.
    const PixelCode codes[] = {PixelCode::N, PixelCode::St, PixelCode::Sk,
                               PixelCode::R};
    for (const i32 w : {1, 5, 7, 33, 64}) {
        const i32 h = 5;
        EncMask got(w, h);
        EncMask want(w, h);
        for (i32 y = 0; y < h; ++y)
            for (i32 x = 0; x < w; ++x) {
                got.set(x, y, codes[(x + y) % 4]);
                want.set(x, y, codes[(x + y) % 4]);
            }
        for (i32 y = 0; y < h; ++y) {
            const i32 x0 = (y * 3) % w;
            const i32 n = std::max(1, (w - x0) - y);
            const PixelCode c = codes[(y + 1) % 4];
            got.fillRun(y, x0, n, c);
            for (i32 x = x0; x < x0 + n; ++x)
                want.set(x, y, c);
            const i32 step = 1 + y % 3;
            const u32 count = static_cast<u32>((n - 1) / step + 1);
            got.markR(y, x0, count, step);
            for (i32 x = x0; x < x0 + n; x += step)
                want.set(x, y, PixelCode::R);
        }
        EXPECT_EQ(got.bytes(), want.bytes()) << "w=" << w;
    }
    EncMask mask(5, 2);
    EXPECT_THROW(mask.fillRun(0, 3, 3, PixelCode::R), std::runtime_error);
    EXPECT_THROW(mask.markR(1, 1, 3, 2), std::runtime_error);
}

TEST(RowOffsets, PackedBytesFourPerRow)
{
    RowOffsets offsets(1080);
    EXPECT_EQ(offsets.packedBytes(), 1080u * 4u);
}

} // namespace
} // namespace rpx
