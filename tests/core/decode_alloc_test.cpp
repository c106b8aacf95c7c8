/**
 * @file
 * Zero-steady-state-allocation guarantees for the decode path (ISSUE 8).
 *
 * The binary links the counting global allocator
 * (tests/common/counting_allocator.cpp), so it can assert that — after a warm-up decode populates the pooled
 * scratch (source carries, the RhythmicDecoder's scratchpad slots and
 * frame arena) — repeated decodes of same-geometry frames perform ZERO heap
 * allocations: SoftwareDecoder::decodeInto and tryDecode, cached decodes
 * through a DecodedFrameCache, and RhythmicDecoder::requestPixelsInto
 * alike.
 *
 * The hooks are process-global, which is exactly why this suite lives in
 * its own binary: no other test sees the counting allocator, and gtest's
 * own allocations between EXPECT calls don't perturb the counters
 * because we only sample around the hot calls.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../common/counting_allocator.hpp"
#include "common/rng.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/frame_store.hpp"
#include "core/sw_decoder.hpp"
#include "memory/dram.hpp"

namespace rpx {
namespace {

using test::allocationCount;

Image
noiseFrame(i32 w, i32 h, u64 seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            img.set(x, y, static_cast<u8>(rng.uniformInt(0, 255)));
    return img;
}

std::vector<RegionLabel>
testRegions(i32 w, i32 h)
{
    std::vector<RegionLabel> regions = {
        {4, 4, w / 2, h / 2, 1, 1, 0},
        {w / 3, h / 3, w / 2, h / 2, 2, 2, 0},
        {0, 0, w, h, 4, 3, 1},
    };
    sortRegionsByY(regions);
    return regions;
}

TEST(DecodeAlloc, SoftwareDecoderSteadyStateAllocatesNothing)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(testRegions(w, h));
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < 6; ++t)
        frames.push_back(enc.encodeFrame(noiseFrame(w, h, 3 + t), t));

    const SoftwareDecoder dec;
    Image out;
    std::vector<const EncodedFrame *> history;
    const auto decodeOne = [&](size_t newest) {
        history.clear();
        for (size_t k = 1; k <= 3; ++k)
            history.push_back(&frames[newest - k]);
        dec.decodeInto(frames[newest], history, out);
    };

    // Warm-up round: pools, source carries and the output image
    // allocate here. The measured round decodes the same frames, i.e.
    // the steady-state working set.
    decodeOne(5);
    decodeOne(4);
    decodeOne(3);

    const unsigned long long before = allocationCount();
    decodeOne(5);
    decodeOne(4);
    decodeOne(3);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "steady-state whole-frame decode must not touch the heap";
    EXPECT_GT(out.pixelCount(), 0);
}

TEST(DecodeAlloc, TryDecodeSteadyStateAllocatesNothing)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(testRegions(w, h));
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < 4; ++t)
        frames.push_back(enc.encodeFrame(noiseFrame(w, h, 11 + t), t));
    std::vector<const EncodedFrame *> history = {&frames[2], &frames[1],
                                                 &frames[0]};

    const SoftwareDecoder dec;
    Image out;
    ASSERT_TRUE(dec.tryDecode(frames[3], history, out).ok);
    ASSERT_TRUE(dec.tryDecode(frames[3], history, out).ok);

    const unsigned long long before = allocationCount();
    const SwDecodeStatus st = dec.tryDecode(frames[3], history, out);
    EXPECT_TRUE(st.ok);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "the corruption-safe path must also be allocation-free warm";
}

/**
 * The paper's foveated layout: a stride-1 fovea over a stride-4, skip-2
 * periphery, decoded with a 4-frame history on frames that skip the
 * periphery (history fills through the lazy history carries) and on
 * frames that sample it (St rows through the current-frame carry).
 */
TEST(DecodeAlloc, FoveatedHistoryDecodeAllocatesNothingWarm)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    std::vector<RegionLabel> labels = {{0, 0, w, h, 4, 2, 0},
                                       {24, 16, 32, 24, 1, 1, 0}};
    sortRegionsByY(labels);
    enc.setRegionLabels(labels);
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < 7; ++t)
        frames.push_back(enc.encodeFrame(noiseFrame(w, h, 51 + t), t));

    std::vector<const EncodedFrame *> history;
    const auto historyOf = [&](size_t newest) {
        history.clear();
        for (size_t k = 1; k <= 4; ++k)
            history.push_back(&frames[newest - k]);
    };

    const SoftwareDecoder dec;
    Image out;
    for (int round = 0; round < 2; ++round) {
        for (const size_t newest : {5u, 6u}) { // skips, then samples
            historyOf(newest);
            dec.decodeInto(frames[newest], history, out);
        }
    }

    historyOf(5);
    const unsigned long long before = allocationCount();
    dec.decodeInto(frames[5], history, out);
    EXPECT_GT(dec.lastHistoryFills(), 0u);
    historyOf(6);
    dec.decodeInto(frames[6], history, out);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "warm foveated decode must not touch the heap";
}

/**
 * Cached decodes (DecodedFrameCache) of a same-geometry foveated
 * sequence, each frame over the three frames before it as a FrameStore
 * would hand them out: the first decode sizes the cache, the carries and
 * the scratch, and decoding the sequence again allocates nothing. The
 * graceful path is covered too: a quarantined frame, the hold-last-good
 * copy of the cache into a warm image, and the fallback decode after it.
 */
TEST(DecodeAlloc, CachedSequenceDecodeAllocatesNothingAfterFirstFrame)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    std::vector<RegionLabel> labels = {{0, 0, w, h, 4, 2, 0},
                                       {24, 16, 32, 24, 1, 1, 0}};
    sortRegionsByY(labels);
    enc.setRegionLabels(labels);
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < 12; ++t)
        frames.push_back(enc.encodeFrame(noiseFrame(w, h, 61 + t), t));
    frames[9].pixels.pop_back(); // quarantined: payload disagrees

    std::vector<const EncodedFrame *> history;
    history.reserve(3);
    const auto historyOf = [&](size_t newest) {
        history.clear();
        for (size_t k = 1; k <= 3; ++k)
            history.push_back(&frames[newest - k]);
    };

    const SoftwareDecoder dec;
    DecodedFrameCache cache;
    Image held(w, h);
    u32 quarantined = 0; // bit t: frame t was quarantined
    const auto decodeSequence = [&] {
        historyOf(3);
        dec.decodeInto(frames[3], history, cache);
        for (size_t t = 4; t < frames.size(); ++t) {
            historyOf(t);
            if (dec.tryDecode(frames[t], history, cache).quarantined)
                quarantined |= 1u << t;
            held = cache.image(); // the copy-out / hold-last-good
        }
    };
    decodeSequence(); // sizes everything
    EXPECT_EQ(quarantined, 1u << 9);

    quarantined = 0;
    const unsigned long long before = allocationCount();
    decodeSequence();
    EXPECT_EQ(allocationCount() - before, 0u)
        << "warm cached decodes must not touch the heap";
    EXPECT_EQ(quarantined, 1u << 9);
    EXPECT_EQ(held, cache.image());
}

TEST(DecodeAlloc, RhythmicDecoderTransactionsAllocateNothingWarm)
{
    const i32 w = 128, h = 96;
    DramModel dram;
    RhythmicEncoder enc(w, h);
    FrameStore store(dram, w, h);
    enc.setRegionLabels(testRegions(w, h));
    for (FrameIndex t = 0; t < 4; ++t)
        store.store(enc.encodeFrame(noiseFrame(w, h, 31 + t), t));

    RhythmicDecoder dec(store);
    std::vector<u8> row;
    // Warm-up: scratchpad refresh mirrors all stored frames, the arena
    // sizes its staging buffers, and `row` reaches frame width.
    for (i32 y = 0; y < h; ++y)
        dec.requestPixelsInto(0, y, w, row);

    const unsigned long long before = allocationCount();
    for (i32 y = 0; y < h; ++y)
        dec.requestPixelsInto(0, y, w, row);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "warm pixel transactions must not touch the heap";
    EXPECT_EQ(row.size(), static_cast<size_t>(w));
}

TEST(DecodeAlloc, ScratchpadRefreshAfterStoreIsAllocationFreeWarm)
{
    const i32 w = 128, h = 96;
    DramModel dram;
    RhythmicEncoder enc(w, h);
    FrameStore store(dram, w, h);
    enc.setRegionLabels(testRegions(w, h));
    RhythmicDecoder dec(store);
    std::vector<u8> row;

    // Fill the store's ring so later stores evict (steady state), and
    // run the measured request pattern after each store so the scratchpad
    // pool, the arena buffers, and every slot's source carry reach their
    // final capacity.
    for (FrameIndex t = 0; t < 8; ++t) {
        store.store(enc.encodeFrame(noiseFrame(w, h, 41 + t), t));
        for (i32 y = 0; y < h; y += 7)
            dec.requestPixelsInto(0, y, w, row);
    }

    // The store/encoder allocate for the new frame; that happens before
    // the measurement. The decoder's scratchpad refresh (triggered by the
    // first transaction after the store) and the transactions themselves
    // must reuse the pooled metadata and arena buffers.
    store.store(enc.encodeFrame(noiseFrame(w, h, 99), 8));
    const unsigned long long before = allocationCount();
    for (i32 y = 0; y < h; y += 7)
        dec.requestPixelsInto(0, y, w, row);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "a warm scratchpad refresh must reuse its pooled metadata";
}

} // namespace
} // namespace rpx
