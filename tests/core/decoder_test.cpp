/** @file Unit tests for the rhythmic pixel decoder (PMMU + sampling unit). */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/sw_decoder.hpp"
#include "memory/dram.hpp"
#include "reference_decode.hpp"

namespace rpx {
namespace {

Image
rampFrame(i32 w, i32 h)
{
    Image img(w, h);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            img.set(x, y, static_cast<u8>((3 * x + 11 * y) % 251 + 1));
    return img;
}

struct DecoderRig {
    DramModel dram;
    RhythmicEncoder encoder;
    FrameStore store;
    RhythmicDecoder decoder;

    DecoderRig(i32 w, i32 h)
        : dram(1 << 26), encoder(w, h), store(dram, w, h),
          decoder(store)
    {
    }

    void
    push(const Image &frame, FrameIndex t,
         const std::vector<RegionLabel> &labels)
    {
        auto sorted = labels;
        sortRegionsByY(sorted);
        encoder.setRegionLabels(sorted);
        store.store(encoder.encodeFrame(frame, t));
    }
};

TEST(Decoder, FullFrameRegionReproducesPixels)
{
    DecoderRig rig(16, 12);
    const Image frame = rampFrame(16, 12);
    rig.push(frame, 0, {fullFrameRegion(16, 12)});

    const auto row = rig.decoder.requestPixels(0, 5, 16);
    for (i32 x = 0; x < 16; ++x)
        EXPECT_EQ(row[static_cast<size_t>(x)], frame.at(x, 5));
}

TEST(Decoder, NonRegionalPixelsAreBlack)
{
    DecoderRig rig(16, 16);
    rig.push(rampFrame(16, 16), 0, {{4, 4, 4, 4, 1, 1, 0}});
    const auto px = rig.decoder.requestPixels(0, 0, 4);
    for (const u8 v : px)
        EXPECT_EQ(v, 0);
    EXPECT_EQ(rig.decoder.stats().black_pixels, 4u);
}

TEST(Decoder, StridedPixelsBlockReplicate)
{
    DecoderRig rig(16, 16);
    const Image frame = rampFrame(16, 16);
    rig.push(frame, 0, {{0, 0, 16, 16, 2, 1, 0}});
    // Row 0 is on the vertical stride: St pixels hold the left R.
    auto row0 = rig.decoder.requestPixels(0, 0, 16);
    for (i32 x = 0; x < 16; ++x)
        EXPECT_EQ(row0[static_cast<size_t>(x)], frame.at(x & ~1, 0));
    // Row 1 is off the vertical stride: copies from row 0's grid.
    auto row1 = rig.decoder.requestPixels(0, 1, 16);
    for (i32 x = 0; x < 16; ++x)
        EXPECT_EQ(row1[static_cast<size_t>(x)], frame.at(x & ~1, 0));
    EXPECT_GT(rig.decoder.stats().resampled_pixels, 0u);
}

TEST(Decoder, SkippedPixelsComeFromHistory)
{
    DecoderRig rig(8, 8);
    const Image f0 = rampFrame(8, 8);
    Image f1 = f0;
    f1.fill(200); // would be the new values, but the region skips frame 1
    const std::vector<RegionLabel> labels = {{0, 0, 8, 8, 1, 2, 0}};
    rig.push(f0, 0, labels);
    rig.push(f1, 1, labels);

    // Frame 1 is temporally skipped; the decoder must serve frame 0 data.
    const auto px = rig.decoder.requestPixels(0, 3, 8);
    for (i32 x = 0; x < 8; ++x)
        EXPECT_EQ(px[static_cast<size_t>(x)], f0.at(x, 3));
    EXPECT_GT(rig.decoder.stats().history_hits, 0u);
    EXPECT_GT(rig.decoder.stats().sub_requests_inter, 0u);
}

TEST(Decoder, HistoryMissFallsBackToBlack)
{
    DecoderRig rig(8, 8);
    // Skip 2 with phase 1: frame 0 is inactive and there is no history.
    rig.push(rampFrame(8, 8), 0, {{0, 0, 8, 8, 1, 2, 1}});
    const auto px = rig.decoder.requestPixels(0, 0, 8);
    for (const u8 v : px)
        EXPECT_EQ(v, 0);
    EXPECT_GT(rig.decoder.stats().history_misses, 0u);
}

TEST(Decoder, HistoryOffsetsPastPayloadTotalAreMisses)
{
    // An unsealed store lets a history frame whose mask and row offsets
    // disagree through validation. Frame 0 samples rows 0..6 and frame 1
    // skips them. In DRAM, frame 0's offset for row 7 is rewritten to
    // equal row 6's: row 6 now counts 0 entries, the payload total drops
    // to 48, and the mask's R codes in row 6 resolve to offsets 48..55,
    // past the total. Those pixels must miss, not read the slot's stale
    // bytes.
    DecoderRig rig(8, 8);
    const Image f0 = rampFrame(8, 8);
    const std::vector<RegionLabel> labels = {{0, 0, 8, 7, 1, 2, 0}};
    rig.push(f0, 0, labels);
    rig.push(f0, 1, labels);
    ASSERT_FALSE(rig.store.metadataCrcEnabled());

    const StoredFrameAddrs *past = rig.store.recentAddrs(1);
    u8 row6[sizeof(u32)];
    rig.dram.read(past->offsets.base + 6 * sizeof(u32), row6, sizeof(row6));
    ASSERT_EQ(row6[0], 48); // 6 full rows of 8 before it
    rig.dram.write(past->offsets.base + 7 * sizeof(u32), row6, sizeof(row6));

    const auto px = rig.decoder.requestPixels(0, 5, 16);
    for (i32 x = 0; x < 8; ++x) {
        EXPECT_EQ(px[static_cast<size_t>(x)], f0.at(x, 5)) << x;
        EXPECT_EQ(px[static_cast<size_t>(8 + x)], 0) << x;
    }
    const DecoderStats &s = rig.decoder.stats();
    EXPECT_EQ(s.history_hits, 8u);
    EXPECT_EQ(s.history_misses, 8u);
    EXPECT_EQ(s.frames_quarantined, 0u);
    EXPECT_EQ(s.validation_failures, 0u);
}

TEST(Decoder, MatchesSoftwareDecoderOnMixedScene)
{
    const i32 w = 48, h = 40;
    DecoderRig rig(w, h);
    const std::vector<RegionLabel> labels = {
        {2, 2, 14, 12, 2, 1, 0},
        {20, 6, 20, 18, 3, 2, 0},
        {6, 24, 30, 12, 1, 3, 0},
    };
    SoftwareDecoder sw;
    for (FrameIndex t = 0; t < 5; ++t)
        rig.push(rampFrame(w, h), t, labels);

    std::vector<const EncodedFrame *> history;
    for (size_t k = 1; k < rig.store.size(); ++k)
        history.push_back(rig.store.recent(k));
    const Image expected = sw.decode(*rig.store.recent(0), history);

    for (i32 y = 0; y < h; ++y) {
        const auto row = rig.decoder.requestPixels(0, y, w);
        for (i32 x = 0; x < w; ++x)
            EXPECT_EQ(row[static_cast<size_t>(x)], expected.at(x, y))
                << "(" << x << "," << y << ")";
    }
}

TEST(Decoder, RequestSpanningRows)
{
    DecoderRig rig(8, 8);
    const Image frame = rampFrame(8, 8);
    rig.push(frame, 0, {fullFrameRegion(8, 8)});
    const auto px = rig.decoder.requestPixels(6, 2, 6);
    EXPECT_EQ(px[0], frame.at(6, 2));
    EXPECT_EQ(px[1], frame.at(7, 2));
    EXPECT_EQ(px[2], frame.at(0, 3));
    EXPECT_EQ(px[5], frame.at(3, 3));
}

TEST(Decoder, RequestValidation)
{
    DecoderRig rig(8, 8);
    rig.push(rampFrame(8, 8), 0, {fullFrameRegion(8, 8)});
    EXPECT_THROW(rig.decoder.requestPixels(-1, 0, 4),
                 std::invalid_argument);
    EXPECT_THROW(rig.decoder.requestPixels(0, 8, 1),
                 std::invalid_argument);
    EXPECT_THROW(rig.decoder.requestPixels(7, 7, 3),
                 std::invalid_argument);
    EXPECT_NO_THROW(rig.decoder.requestPixels(7, 7, 1));
}

TEST(Decoder, EmptyStoreThrows)
{
    DramModel dram(1 << 20);
    FrameStore store(dram, 8, 8);
    RhythmicDecoder decoder(store);
    EXPECT_THROW(decoder.requestPixels(0, 0, 1), std::runtime_error);
}

TEST(Decoder, OutOfFrameHandlerBypasses)
{
    DecoderRig rig(8, 8);
    rig.push(rampFrame(8, 8), 0, {fullFrameRegion(8, 8)});
    // Write a marker into plain DRAM and read it through the decoder.
    rig.dram.write(0x500000, std::vector<u8>{42, 43});
    const auto bytes = rig.decoder.requestBytes(0x500000, 2);
    EXPECT_EQ(bytes[0], 42);
    EXPECT_EQ(bytes[1], 43);
    EXPECT_EQ(rig.decoder.stats().bypassed, 1u);

    // An address inside the decoded window is translated instead.
    const Image frame = rampFrame(8, 8);
    const auto px =
        rig.decoder.requestBytes(rig.decoder.decodedBase() + 8, 8);
    for (i32 x = 0; x < 8; ++x)
        EXPECT_EQ(px[static_cast<size_t>(x)], frame.at(x, 1));
    EXPECT_EQ(rig.decoder.stats().bypassed, 1u);
}

TEST(Decoder, ByteRequestStraddlingApertureEndSplits)
{
    // Regression: a transaction that *starts* inside the decoded-frame
    // aperture but runs past its end was routed entirely to bypass,
    // returning raw DRAM content for the in-frame bytes. The handler must
    // split it: pixel-translate the in-aperture part, bypass the rest.
    const i32 w = 8, h = 8;
    DramModel dram(1 << 23);
    RhythmicEncoder encoder(w, h);
    FrameStore store(dram, w, h);
    RhythmicDecoder::Config dc;
    // A small aperture base keeps the bypass reads within test-sized DRAM
    // (the default 2 GB base would balloon the backing store).
    dc.decoded_base = 0x400000;
    RhythmicDecoder decoder(store, dc);

    const Image frame = rampFrame(w, h);
    encoder.setRegionLabels({fullFrameRegion(w, h)});
    store.store(encoder.encodeFrame(frame, 0));

    const u64 end = dc.decoded_base + decoder.decodedSize();
    dram.write(end, std::vector<u8>{0xAA, 0xBB, 0xCC});

    // Last 4 pixels of the frame + 3 bytes past the aperture.
    const auto bytes = decoder.requestBytes(end - 4, 7);
    ASSERT_EQ(bytes.size(), 7u);
    for (i32 i = 0; i < 4; ++i)
        EXPECT_EQ(bytes[static_cast<size_t>(i)], frame.at(4 + i, 7));
    EXPECT_EQ(bytes[4], 0xAA);
    EXPECT_EQ(bytes[5], 0xBB);
    EXPECT_EQ(bytes[6], 0xCC);
    EXPECT_EQ(decoder.stats().bypassed, 1u); // the suffix read only
}

TEST(Decoder, ByteRequestStraddlingApertureStartSplits)
{
    const i32 w = 8, h = 8;
    DramModel dram(1 << 23);
    RhythmicEncoder encoder(w, h);
    FrameStore store(dram, w, h);
    RhythmicDecoder::Config dc;
    dc.decoded_base = 0x400000;
    RhythmicDecoder decoder(store, dc);

    const Image frame = rampFrame(w, h);
    encoder.setRegionLabels({fullFrameRegion(w, h)});
    store.store(encoder.encodeFrame(frame, 0));

    dram.write(dc.decoded_base - 2, std::vector<u8>{0x11, 0x22});

    // Two bytes before the aperture + the first 4 pixels of row 0.
    const auto head = decoder.requestBytes(dc.decoded_base - 2, 6);
    ASSERT_EQ(head.size(), 6u);
    EXPECT_EQ(head[0], 0x11);
    EXPECT_EQ(head[1], 0x22);
    for (i32 i = 0; i < 4; ++i)
        EXPECT_EQ(head[static_cast<size_t>(i + 2)], frame.at(i, 0));
    EXPECT_EQ(decoder.stats().bypassed, 1u);

    // A request overlapping both edges splits into three parts.
    const auto all =
        decoder.requestBytes(dc.decoded_base - 1, decoder.decodedSize() + 2);
    ASSERT_EQ(all.size(), static_cast<size_t>(w) * h + 2);
    EXPECT_EQ(all[0], 0x22);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            EXPECT_EQ(all[static_cast<size_t>(1 + y * w + x)],
                      frame.at(x, y));
    EXPECT_EQ(decoder.stats().bypassed, 3u); // prefix + suffix added two
}

TEST(Decoder, ScratchpadTracksNewestFrameAcrossRingWrap)
{
    // Regression: the scratchpad staleness check compared stored
    // EncodedFrame pointers only. Once the history ring wraps, the store
    // can hand a new frame the heap storage of an evicted one, leaving a
    // matching pointer over stale mirrored metadata. The (pointer, index)
    // key refreshes correctly, so the decoder always serves the newest
    // frame's content.
    DecoderRig rig(8, 8);
    const std::vector<RegionLabel> labels = {fullFrameRegion(8, 8)};
    for (FrameIndex t = 0; t < 12; ++t) { // 3x the 4-deep history ring
        Image frame(8, 8);
        frame.fill(static_cast<u8>(40 + 3 * t));
        rig.push(frame, t, labels);
        const auto row = rig.decoder.requestPixels(0, 0, 8);
        for (const u8 v : row)
            ASSERT_EQ(v, static_cast<u8>(40 + 3 * t)) << "t=" << t;
    }
}

TEST(Decoder, LatencyIsTensOfNanoseconds)
{
    // §6.3: the decoder adds "a few 10s of ns" per transaction.
    DecoderRig rig(64, 64);
    rig.push(rampFrame(64, 64), 0, {fullFrameRegion(64, 64)});
    for (i32 y = 0; y < 8; ++y)
        rig.decoder.requestPixels(0, y, 8);
    const double ns = rig.decoder.avgLatencyNs();
    EXPECT_GT(ns, 5.0);
    EXPECT_LT(ns, 200.0);
}

TEST(Decoder, CoalescesContiguousReads)
{
    DecoderRig rig(32, 4);
    rig.push(rampFrame(32, 4), 0, {fullFrameRegion(32, 4)});
    rig.decoder.requestPixels(0, 0, 32);
    // One whole encoded row -> one coalesced DRAM read.
    EXPECT_EQ(rig.decoder.stats().dram_reads, 1u);
    EXPECT_EQ(rig.decoder.stats().dram_pixel_bytes, 32u);
}

TEST(Decoder, SplitsRunsAtBurstBoundary)
{
    DecoderRig rig(256, 2);
    const Image frame = rampFrame(256, 2);
    rig.push(frame, 0, {fullFrameRegion(256, 2)});
    const auto row = rig.decoder.requestPixels(0, 0, 256);
    // A 256-byte contiguous run splits into 4 bursts of <= 64 bytes.
    EXPECT_EQ(rig.decoder.stats().dram_reads, 4u);
    EXPECT_EQ(rig.decoder.stats().dram_pixel_bytes, 256u);
    for (i32 x = 0; x < 256; ++x)
        EXPECT_EQ(row[static_cast<size_t>(x)], frame.at(x, 0));
}

TEST(Decoder, GapCoalescingIsByteIdenticalAndNeverSlower)
{
    // Several regions separated by non-regional gaps give the coalescer
    // payload runs with small holes between them. With burst_gap_bytes >
    // 0 it may read through those holes: the decoded bytes must stay
    // identical and the burst count (hence modelled cycles) can only
    // shrink, while fetched payload bytes can only grow (gap bytes are
    // fetched and discarded).
    const i32 w = 96, h = 32;
    const std::vector<RegionLabel> labels = {
        {0, 0, 20, h, 2, 1, 0},
        {28, 0, 12, h, 1, 1, 0},
        {48, 0, 20, h, 3, 1, 0},
        {76, 0, 16, h, 2, 1, 0},
    };
    const Image frame = rampFrame(w, h);

    DecoderRig legacy(w, h);
    legacy.push(frame, 0, labels);

    DramModel dram2(1 << 26);
    RhythmicEncoder enc2(w, h);
    FrameStore store2(dram2, w, h);
    auto sorted = labels;
    sortRegionsByY(sorted);
    enc2.setRegionLabels(sorted);
    store2.store(enc2.encodeFrame(frame, 0));
    RhythmicDecoder::Config gap_cfg;
    gap_cfg.burst_gap_bytes = 8;
    RhythmicDecoder gapped(store2, gap_cfg);

    for (i32 y = 0; y < h; ++y)
        EXPECT_EQ(gapped.requestPixels(0, y, w),
                  legacy.decoder.requestPixels(0, y, w))
            << "gap coalescing changed decoded bytes at row " << y;

    const DecoderStats &a = legacy.decoder.stats();
    const DecoderStats &b = gapped.stats();
    EXPECT_EQ(b.pixels_requested, a.pixels_requested);
    EXPECT_EQ(b.black_pixels, a.black_pixels);
    EXPECT_EQ(b.resampled_pixels, a.resampled_pixels);
    EXPECT_LE(b.dram_reads, a.dram_reads)
        << "reading through gaps must not add bursts";
    EXPECT_LE(b.cycles, a.cycles);
    EXPECT_GE(b.dram_pixel_bytes, a.dram_pixel_bytes)
        << "gap bytes are fetched and discarded, never skipped";
}

TEST(Decoder, MaskSurvivesDramRoundTrip)
{
    // The mask bytes the frame store writes to DRAM reconstruct the
    // original EncMask exactly (what the metadata scratchpad loads).
    DecoderRig rig(32, 16);
    const std::vector<RegionLabel> labels = {{3, 2, 20, 9, 2, 2, 0}};
    rig.push(rampFrame(32, 16), 0, labels);
    const StoredFrameAddrs *addrs = rig.store.recentAddrs(0);
    const EncodedFrame *frame = rig.store.recent(0);
    const std::vector<u8> bytes =
        rig.dram.read(addrs->mask.base, frame->mask.packedBytes());
    const EncMask reloaded(32, 16, bytes);
    EXPECT_EQ(reloaded, frame->mask);
    EXPECT_THROW(EncMask(32, 15, bytes), std::invalid_argument);
}

TEST(Decoder, OutOfOrderRequestsMatchReferenceWithQuarantinedHistory)
{
    // A mixed stride/skip scene over four history frames, the newest of
    // which fails its metadata CRC. Requests land at random origins and
    // lengths: mid-row starts, multi-row spans, backward rows and repeats
    // of one row. Every pixel must match the per-pixel oracle, and the
    // final stats are pinned.
    const i32 w = 64, h = 64;
    DramModel dram(1 << 26);
    RhythmicEncoder encoder(w, h);
    FrameStore store(dram, w, h, /*history=*/5);
    store.enableMetadataCrc(true);
    RhythmicDecoder::Config dc;
    dc.max_upscan = 5;
    RhythmicDecoder decoder(store, dc);

    std::vector<RegionLabel> labels = {
        {0, 0, w, 40, 4, 2, 0},     // periphery, sampled on even frames
        {8, 6, 24, 20, 1, 1, 0},    // full-rate fovea
        {20, 30, 16, 14, 2, 1, 0},
        {8, 44, 48, 20, 8, 3, 1},   // stride past max_upscan
        {0, 40, 8, 24, 1, 8, 0},    // last sampled before the history
    };
    sortRegionsByY(labels);
    encoder.setRegionLabels(labels);
    for (FrameIndex t = 0; t < 8; ++t) {
        Image frame = rampFrame(w, h);
        for (i32 y = 0; y < h; ++y)
            for (i32 x = 0; x < w; ++x)
                frame.set(x, y,
                          static_cast<u8>(frame.at(x, y) + 29 * t));
        store.store(encoder.encodeFrame(frame, t));
    }

    // Frame 6, the periphery's latest sample, goes bad in DRAM: the
    // periphery must come from frame 4 instead.
    const StoredFrameAddrs *bad = store.recentAddrs(1);
    const u8 flipped = static_cast<u8>(dram.peek(bad->mask.base) ^ 0xff);
    dram.write(bad->mask.base, &flipped, 1);

    std::vector<const EncodedFrame *> history;
    for (size_t k = 2; k < store.size(); ++k)
        history.push_back(store.recent(k));
    SoftwareDecoder::Config rc;
    rc.max_upscan = dc.max_upscan;
    const ReferenceDecode ref =
        referenceDecode(*store.recent(0), history, rc);

    Rng rng(16);
    const auto draw = [&](i64 lo, i64 hi) {
        return static_cast<i32>(rng.uniformInt(lo, hi));
    };
    i32 y = 0;
    for (int i = 0; i < 400; ++i) {
        switch (draw(0, 3)) {
        case 0: // anywhere
            y = draw(0, h - 1);
            break;
        case 1: // the same row again
            break;
        case 2: // back up a few rows
            y = std::max(0, y - draw(1, 12));
            break;
        default: // on down the frame
            y = std::min(h - 1, y + draw(1, 3));
            break;
        }
        const i32 x = draw(0, w - 1);
        const i64 first = static_cast<i64>(y) * w + x;
        const i32 count = static_cast<i32>(
            std::min<i64>(static_cast<i64>(w) * h - first, draw(1, 3 * w)));
        const auto px = decoder.requestPixels(x, y, count);
        for (i32 k = 0; k < count; ++k) {
            const i32 px_x = static_cast<i32>((first + k) % w);
            const i32 px_y = static_cast<i32>((first + k) / w);
            ASSERT_EQ(px[static_cast<size_t>(k)], ref.image.at(px_x, px_y))
                << "request " << i << " (" << x << "," << y << ")+"
                << count << " at (" << px_x << "," << px_y << ")";
        }
    }

    // Pinned to the stats the per-pixel search translator produced for
    // this request sequence.
    const DecoderStats &s = decoder.stats();
    EXPECT_EQ(s.transactions, 400u);
    EXPECT_EQ(s.pixels_requested, 37346u);
    EXPECT_EQ(s.sub_requests_intra, 12977u);
    EXPECT_EQ(s.sub_requests_inter, 17974u);
    EXPECT_EQ(s.dram_reads, 860u);
    EXPECT_EQ(s.dram_pixel_bytes, 8472u);
    EXPECT_EQ(s.metadata_bytes, 6400u);
    EXPECT_EQ(s.black_pixels, 6395u);
    EXPECT_EQ(s.resampled_pixels, 7925u);
    EXPECT_EQ(s.history_hits, 17974u);
    EXPECT_EQ(s.history_misses, 3200u);
    EXPECT_EQ(s.bypassed, 0u);
    EXPECT_EQ(s.cycles, 4060u);
    EXPECT_EQ(s.frames_quarantined, 1u);
    EXPECT_EQ(s.crc_failures, 1u);
    EXPECT_EQ(s.validation_failures, 0u);
}

} // namespace
} // namespace rpx
