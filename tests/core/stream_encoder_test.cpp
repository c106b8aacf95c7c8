/** @file Unit tests for the beat-level streaming encoder front-end. */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "core/stream_encoder.hpp"
#include "frame/draw.hpp"

namespace rpx {
namespace {

Image
noiseFrame(i32 w, i32 h, u64 seed)
{
    Image img(w, h);
    Rng rng(seed);
    for (auto &b : img.data())
        b = static_cast<u8>(rng.uniformInt(0, 255));
    return img;
}

std::vector<RegionLabel>
mixedRegions()
{
    std::vector<RegionLabel> regions = {
        {2, 2, 14, 10, 2, 1, 0},
        {20, 5, 18, 20, 3, 2, 0},
        {-4, 24, 30, 10, 1, 3, 0},
    };
    sortRegionsByY(regions);
    return regions;
}

/** Push a whole frame through the streaming interface. */
EncodedFrame
streamFrame(StreamingEncoder &enc, const Image &frame, FrameIndex t)
{
    enc.beginFrame(t);
    streamImage(frame, [&](const PixelBeat &b) {
        while (!enc.pushBeat(b))
            enc.drain(1); // backpressure: drain one beat, retry
        return true;
    });
    return enc.finishFrame();
}

TEST(StreamingEncoder, MatchesFrameAtATimeEncoder)
{
    const i32 w = 48, h = 36;
    const auto regions = mixedRegions();
    RhythmicEncoder reference(w, h);
    StreamingEncoder streaming(w, h);
    reference.setRegionLabels(regions);
    streaming.setRegionLabels(regions);

    for (FrameIndex t = 0; t < 5; ++t) {
        const Image frame = noiseFrame(w, h, 10 + static_cast<u64>(t));
        const EncodedFrame a = reference.encodeFrame(frame, t);
        const EncodedFrame b = streamFrame(streaming, frame, t);
        EXPECT_EQ(a.pixels, b.pixels) << "t=" << t;
        EXPECT_EQ(a.mask, b.mask) << "t=" << t;
        EXPECT_EQ(a.offsets, b.offsets) << "t=" << t;
    }
}

TEST(StreamingEncoder, FifoBackpressure)
{
    StreamingEncoder enc(32, 8);
    enc.setRegionLabels({fullFrameRegion(32, 8)});
    enc.beginFrame(0);
    // Fill the FIFO without draining: depth is 16, but pushBeat drains
    // opportunistically when full, so pushes keep succeeding while the
    // FIFO never exceeds its depth.
    const Image frame = noiseFrame(32, 8, 3);
    u64 pushed = 0;
    streamImage(frame, [&](const PixelBeat &b) {
        EXPECT_LE(enc.pendingBeats(), 16u);
        while (!enc.pushBeat(b))
            enc.drain(1);
        ++pushed;
        return true;
    });
    EXPECT_EQ(pushed, 32u * 8u);
    const EncodedFrame out = enc.finishFrame();
    EXPECT_EQ(out.pixels.size(), 32u * 8u);
}

TEST(StreamingEncoder, IncompleteFrameThrows)
{
    StreamingEncoder enc(16, 16);
    enc.setRegionLabels({fullFrameRegion(16, 16)});
    enc.beginFrame(0);
    PixelBeat beat;
    beat.sof = true;
    ASSERT_TRUE(enc.pushBeat(beat));
    EXPECT_THROW(enc.finishFrame(), std::runtime_error);
}

TEST(StreamingEncoder, ApiMisuseThrows)
{
    StreamingEncoder enc(8, 8);
    enc.setRegionLabels({});
    EXPECT_THROW(enc.pushBeat(PixelBeat{}), std::runtime_error);
    enc.beginFrame(0);
    EXPECT_THROW(enc.setRegionLabels({}), std::runtime_error); // mid-frame
    EXPECT_THROW(enc.finishFrame(), std::runtime_error); // 0 of 64 beats
}

TEST(StreamingEncoder, SkippedFrameProducesEmptyPayload)
{
    StreamingEncoder enc(16, 16);
    enc.setRegionLabels({{0, 0, 16, 16, 1, 2, 0}});
    const Image frame = noiseFrame(16, 16, 9);
    const EncodedFrame f1 = streamFrame(enc, frame, 1); // inactive frame
    EXPECT_TRUE(f1.pixels.empty());
    EXPECT_EQ(f1.mask.at(5, 5), PixelCode::Sk);
}

} // namespace
} // namespace rpx
