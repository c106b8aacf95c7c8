/**
 * @file
 * Zero-steady-state-allocation guarantees for the decode path (ISSUE 8).
 *
 * The binary links the counting global allocator
 * (tests/common/counting_allocator.cpp), so it can assert that — after a warm-up decode populates the pooled
 * scratch (source carries, the RhythmicDecoder's scratchpad slots and
 * frame arena) — repeated decodes of same-geometry frames perform ZERO heap
 * allocations: SoftwareDecoder::decodeInto, ParallelDecoder (threads=1,
 * and the band decodes of threads=2), cached decodes through a
 * DecodedFrameCache, and RhythmicDecoder::requestPixelsInto alike.
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
#include "core/parallel_decoder.hpp"
#include "core/sw_decoder.hpp"
#include "memory/dram.hpp"

namespace rpx {
namespace {

using test::allocationCount;
using test::t_counts_as_main;
using test::workerAllocationCount;

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

TEST(DecodeAlloc, ParallelDecoderSerialPathAllocatesNothing)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(testRegions(w, h));
    const EncodedFrame f0 = enc.encodeFrame(noiseFrame(w, h, 21), 0);
    const EncodedFrame f1 = enc.encodeFrame(noiseFrame(w, h, 22), 1);
    const std::vector<const EncodedFrame *> history = {&f0};

    ParallelDecoder dec; // threads = 1: the inline serial path
    Image out;
    dec.decodeInto(f1, history, out);
    dec.decodeInto(f1, history, out);

    const unsigned long long before = allocationCount();
    dec.decodeInto(f1, history, out);
    dec.decodeInto(f1, history, out);
    EXPECT_EQ(allocationCount() - before, 0u);
}

/**
 * The paper's foveated layout: a stride-1 fovea over a stride-4, skip-2
 * periphery, decoded with a 4-frame history on frames that skip the
 * periphery (history fills through the lazy history carries) and on
 * frames that sample it (St rows through the current-frame carry).
 * The threads = 2 fan-out itself allocates (futures and the pool's job
 * queue, on the submitting thread), so there the band decodes — all of
 * which run on pool workers — are what must stay allocation-free.
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

    t_counts_as_main = true;
    const SoftwareDecoder serial;
    ParallelDecoder::Config pcfg;
    pcfg.threads = 2;
    pcfg.min_band_rows = 4;
    ParallelDecoder parallel(pcfg);
    Image out;
    const auto decodeRound = [&] {
        for (const size_t newest : {5u, 6u}) { // skips, then samples
            historyOf(newest);
            serial.decodeInto(frames[newest], history, out);
            parallel.decodeInto(frames[newest], history, out);
        }
    };
    decodeRound();
    decodeRound();

    historyOf(5);
    unsigned long long before = allocationCount();
    serial.decodeInto(frames[5], history, out);
    EXPECT_GT(serial.lastHistoryFills(), 0u);
    historyOf(6);
    serial.decodeInto(frames[6], history, out);
    EXPECT_EQ(allocationCount() - before, 0u)
        << "warm foveated serial decode must not touch the heap";

    before = workerAllocationCount();
    decodeRound();
    EXPECT_EQ(workerAllocationCount() - before, 0u)
        << "warm foveated band decodes must not touch the heap";
}

/**
 * Cached decodes (DecodedFrameCache) of a same-geometry foveated
 * sequence, each frame over the three frames before it as a FrameStore
 * would hand them out: the first decode sizes the cache, the carries and
 * the scratch, and every later one allocates nothing — serial, through
 * ParallelDecoder's serial path, and in the band decodes of threads = 2
 * (whose fan-out allocates on the submitting thread only). The graceful
 * path is covered too: a quarantined frame, the hold-last-good copy of
 * the cache into a warm image, and the fallback decode after it.
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

    t_counts_as_main = true;
    const SoftwareDecoder serial;
    ParallelDecoder inline_dec; // threads = 1
    ParallelDecoder::Config pcfg;
    pcfg.threads = 2;
    pcfg.min_band_rows = 4;
    ParallelDecoder banded(pcfg);
    DecodedFrameCache serial_cache, inline_cache, banded_cache;
    Image held(w, h);

    historyOf(3); // the first frame: sizes everything
    serial.decodeInto(frames[3], history, serial_cache);
    inline_dec.decodeInto(frames[3], history, inline_cache);
    banded.decodeInto(frames[3], history, banded_cache);

    const unsigned long long worker_before = workerAllocationCount();
    for (size_t t = 4; t < frames.size(); ++t) {
        historyOf(t);
        const SwDecodeStatus st =
            serial.tryDecode(frames[t], history, serial_cache);
        EXPECT_EQ(st.quarantined, t == 9);
        inline_dec.tryDecode(frames[t], history, inline_cache);
        banded.tryDecode(frames[t], history, banded_cache);
        held = serial_cache.image(); // the copy-out / hold-last-good
    }
    EXPECT_EQ(workerAllocationCount() - worker_before, 0u)
        << "warm cached band decodes must not touch the heap";
    EXPECT_EQ(held, banded_cache.image());

    // The serial paths alone, measured on the main thread.
    historyOf(3);
    serial.decodeInto(frames[3], history, serial_cache);
    inline_dec.decodeInto(frames[3], history, inline_cache);
    const unsigned long long before = allocationCount();
    for (size_t t = 4; t < frames.size(); ++t) {
        historyOf(t);
        serial.tryDecode(frames[t], history, serial_cache);
        inline_dec.tryDecode(frames[t], history, inline_cache);
        held = inline_cache.image();
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "warm cached serial decodes must not touch the heap";
    EXPECT_EQ(held, serial_cache.image());
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
