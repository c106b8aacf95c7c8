/**
 * @file
 * Allocation budget of a warm encode. The binary links the counting
 * global allocator (tests/common/counting_allocator.cpp). Once the
 * encoder's plan buffers have grown on the first frames, an encodeFrame
 * allocates only its output — the mask, the payload and the row-offset
 * table — so the count does not depend on how many labels the frame has
 * or how many rows it spans.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../common/counting_allocator.hpp"
#include "common/rng.hpp"
#include "core/encoder.hpp"

namespace rpx {
namespace {

using test::allocationCount;

Image
noiseFrame(i32 w, i32 h)
{
    Rng rng(5);
    Image img(w, h);
    for (u8 &v : img.data())
        v = static_cast<u8>(rng.uniformInt(0, 255));
    return img;
}

/** `count` overlapping labels with strides 1–4 and skips 1–3. */
std::vector<RegionLabel>
labels(i32 w, i32 h, int count)
{
    Rng rng(static_cast<u64>(count) + 17);
    std::vector<RegionLabel> out;
    for (int i = 0; i < count; ++i) {
        RegionLabel r;
        r.w = static_cast<i32>(rng.uniformInt(4, 40));
        r.h = static_cast<i32>(rng.uniformInt(4, 40));
        r.x = static_cast<i32>(rng.uniformInt(0, w - 4));
        r.y = static_cast<i32>(rng.uniformInt(0, h - 4));
        r.stride = static_cast<i32>(rng.uniformInt(1, 4));
        r.skip = static_cast<i32>(rng.uniformInt(1, 3));
        out.push_back(r);
    }
    sortRegionsByY(out);
    return out;
}

/** Allocations of one warm encodeFrame. */
unsigned long long
warmEncodeAllocations(i32 w, i32 h, int regions, bool attribute)
{
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(labels(w, h, regions));
    enc.enableRegionAttribution(attribute);
    const Image frame = noiseFrame(w, h);
    // One full rhythm period (skips 1..3) grows every plan buffer.
    for (FrameIndex t = 0; t < 6; ++t)
        enc.encodeFrame(frame, t);

    const unsigned long long before = allocationCount();
    const EncodedFrame out = enc.encodeFrame(frame, 6);
    const unsigned long long made = allocationCount() - before;
    EXPECT_GT(out.pixels.size(), 0u);
    return made;
}

TEST(EncodeAlloc, WarmEncodeAllocatesOnlyItsOutput)
{
    // Mask, payload and row offsets.
    EXPECT_EQ(warmEncodeAllocations(160, 64, 2, false), 3u);
    EXPECT_EQ(warmEncodeAllocations(160, 64, 2, true), 3u);
}

TEST(EncodeAlloc, SameCountAtTwoAndFourHundredFiftyRegions)
{
    for (const bool attribute : {false, true}) {
        EXPECT_EQ(warmEncodeAllocations(160, 120, 2, attribute),
                  warmEncodeAllocations(160, 120, 450, attribute))
            << "attribute=" << attribute;
    }
}

TEST(EncodeAlloc, SameCountAtSixtyFourAndFourHundredEightyRows)
{
    EXPECT_EQ(warmEncodeAllocations(160, 64, 40, true),
              warmEncodeAllocations(160, 480, 40, true));
}

} // namespace
} // namespace rpx
