/**
 * @file
 * Decode-path identity suite: the reference per-pixel walk
 * (reference_decode.hpp) and the row-carried SoftwareDecoder must
 * produce byte-identical images (and matching history/black tallies) for
 * every comparison mode, awkward geometry, upscan bound, and SIMD level
 * — including the corruption-safe tryDecode path with quarantined frames
 * and frames whose mask disagrees with their row offsets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/encoder.hpp"
#include "core/sw_decoder.hpp"
#include "frame/draw.hpp"
#include "reference_decode.hpp"

namespace rpx {
namespace {

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

/** A varied, overlapping, y-sorted label list for a w x h frame. */
std::vector<RegionLabel>
scatterRegions(i32 w, i32 h, u64 seed, int count)
{
    Rng rng(seed);
    std::vector<RegionLabel> regions;
    for (int i = 0; i < count; ++i) {
        RegionLabel r;
        r.w = static_cast<i32>(rng.uniformInt(1, std::max<i64>(1, w / 2)));
        r.h = static_cast<i32>(rng.uniformInt(1, std::max<i64>(1, h / 2)));
        r.x = static_cast<i32>(rng.uniformInt(0, w - r.w));
        r.y = static_cast<i32>(rng.uniformInt(0, h - r.h));
        r.stride = static_cast<i32>(rng.uniformInt(1, 3));
        r.skip = static_cast<i32>(rng.uniformInt(1, 3));
        r.phase = static_cast<i32>(rng.uniformInt(0, r.skip - 1));
        regions.push_back(r);
    }
    sortRegionsByY(regions);
    return regions;
}


std::vector<const EncodedFrame *>
historyOf(const std::vector<EncodedFrame> &frames)
{
    std::vector<const EncodedFrame *> history;
    for (size_t i = 1; i < frames.size(); ++i)
        history.push_back(&frames[i]);
    return history;
}

/** Encode t = 0..count-1 under fixed labels; frames[0] is the newest. */
std::vector<EncodedFrame>
encodeWithLabels(i32 w, i32 h, std::vector<RegionLabel> labels,
                 FrameIndex count, u64 seed,
                 ComparisonMode mode = ComparisonMode::Hybrid)
{
    sortRegionsByY(labels);
    RhythmicEncoder::Config cfg;
    cfg.mode = mode;
    RhythmicEncoder enc(w, h, cfg);
    enc.setRegionLabels(labels);
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < count; ++t)
        frames.push_back(enc.encodeFrame(noiseFrame(w, h, seed + t), t));
    std::reverse(frames.begin(), frames.end());
    return frames;
}

/** A 4-frame sequence over scattered regions; frames[0] is the newest. */
std::vector<EncodedFrame>
encodeSequence(i32 w, i32 h, ComparisonMode mode, u64 seed)
{
    return encodeWithLabels(w, h, scatterRegions(w, h, seed, 12), 4, seed,
                            mode);
}

/**
 * The decoder against the reference walk at every SIMD level. Goes
 * through tryDecode, so frames that pass validate() but whose mask
 * disagrees with their row offsets still decode. The decoder first
 * decodes the frame without history, so carry state left over from an
 * earlier decode would show.
 */
void
expectMatchesReference(const EncodedFrame &current,
                       const std::vector<const EncodedFrame *> &history,
                       const SoftwareDecoder::Config &cfg,
                       const std::string &what)
{
    const ReferenceDecode ref = referenceDecode(current, history, cfg);
    for (const simd::Level level : simd::supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        const std::string where =
            what + " level=" + simd::levelName(level);
        const SoftwareDecoder serial(cfg);
        Image got;
        EXPECT_TRUE(serial.tryDecode(current, {}, got).ok) << where;
        EXPECT_TRUE(serial.tryDecode(current, history, got).ok) << where;
        EXPECT_EQ(got.data(), ref.image.data()) << where;
        EXPECT_EQ(serial.lastHistoryFills(), ref.history_fills) << where;
        EXPECT_EQ(serial.lastBlackPixels(), ref.black) << where;
    }
    simd::resetLevel();
}

/**
 * The headline property: for every comparison mode and awkward
 * geometry, the decoder reconstructs the reference walk's image byte
 * for byte, with matching fill tallies — through decode() on a fresh
 * decoder and through decodeInto() on one whose image and scratch an
 * earlier geometry shaped.
 */
TEST(SoftwareDecoder, BitIdenticalToReferenceAcrossModesAndGeometries)
{
    const ComparisonMode modes[] = {ComparisonMode::Naive,
                                    ComparisonMode::RowSublist,
                                    ComparisonMode::Hybrid};
    // Odd widths exercise mask rows that are not byte-aligned; odd heights
    // a final 4-row mask group that is cut short.
    const std::pair<i32, i32> geometries[] = {{57, 33}, {64, 47}, {31, 64}};

    const SoftwareDecoder reused;
    Image got;
    for (const ComparisonMode mode : modes) {
        for (const auto &[w, h] : geometries) {
            const std::vector<EncodedFrame> frames =
                encodeSequence(w, h, mode, 0xD3u * static_cast<u64>(w + h));
            const std::vector<const EncodedFrame *> history =
                historyOf(frames);

            const ReferenceDecode ref = referenceDecode(frames[0], history);
            const Image &want = ref.image;

            const SoftwareDecoder fresh;
            EXPECT_EQ(fresh.decode(frames[0], history).data(), want.data())
                << "decode diverged at " << w << "x" << h;
            EXPECT_EQ(fresh.lastHistoryFills(), ref.history_fills);
            EXPECT_EQ(fresh.lastBlackPixels(), ref.black);

            reused.decodeInto(frames[0], history, got);
            EXPECT_EQ(got.data(), want.data())
                << "reused decoder diverged at " << w << "x" << h;
            EXPECT_EQ(reused.lastHistoryFills(), ref.history_fills);
            EXPECT_EQ(reused.lastBlackPixels(), ref.black);
        }
    }
}

/** The identity holds at every SIMD level the host supports. */
TEST(SoftwareDecoder, BitIdenticalAtEverySimdLevel)
{
    const std::vector<EncodedFrame> frames =
        encodeSequence(57, 33, ComparisonMode::Hybrid, 77);
    const std::vector<const EncodedFrame *> history = historyOf(frames);

    const Image want = referenceDecode(frames[0], history).image;

    for (const simd::Level level : simd::supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        const SoftwareDecoder dec;
        Image got;
        dec.decodeInto(frames[0], history, got);
        EXPECT_EQ(got.data(), want.data())
            << "level=" << simd::levelName(level);
    }
    simd::resetLevel();
}

/**
 * The corruption-safe path: a quarantined current frame leaves the
 * output untouched, unusable history frames are skipped and counted,
 * and the surviving decode is byte-identical to the reference walk over
 * the usable history.
 */
TEST(SoftwareDecoder, TryDecodeMatchesReferenceWithQuarantinedFrames)
{
    const i32 w = 64, h = 47;
    std::vector<EncodedFrame> frames =
        encodeSequence(w, h, ComparisonMode::Hybrid, 13);

    // Corrupt one history frame (payload no longer matches the offsets)
    // and append a geometry mismatch; both must be skipped, not fatal.
    frames[2].pixels.resize(frames[2].pixels.size() / 2);
    const std::vector<EncodedFrame> other =
        encodeSequence(w + 8, h, ComparisonMode::Hybrid, 14);
    std::vector<const EncodedFrame *> history = historyOf(frames);
    history.push_back(&other[0]);

    const ReferenceDecode ref =
        referenceDecode(frames[0], {&frames[1], &frames[3]});
    const SoftwareDecoder dec;
    Image got;
    const SwDecodeStatus st = dec.tryDecode(frames[0], history, got);
    EXPECT_TRUE(st.ok);
    EXPECT_FALSE(st.quarantined);
    EXPECT_EQ(st.history_skipped, 2u);
    EXPECT_EQ(got.data(), ref.image.data());
    EXPECT_EQ(dec.lastHistoryFills(), ref.history_fills);
    EXPECT_EQ(dec.lastBlackPixels(), ref.black);

    // A corrupt *current* frame quarantines instead of decoding.
    EncodedFrame bad = frames[0];
    bad.pixels.resize(bad.pixels.size() / 2);
    Image untouched(3, 3, PixelFormat::Gray8, 200);
    const SwDecodeStatus bad_st = dec.tryDecode(bad, history, untouched);
    EXPECT_FALSE(bad_st.ok);
    EXPECT_TRUE(bad_st.quarantined);
    EXPECT_NE(bad_st.reason, nullptr);
    EXPECT_EQ(untouched.at(1, 1), 200)
        << "quarantine must not touch the output image";
}

/**
 * The carry's distance check: St rows whose nearest R row lies beyond
 * max_upscan fall back to history or black exactly as the upscan walk
 * does, for bounds below, at and above the stride.
 */
TEST(DecoderCarry, UpscanBoundAcrossStrides)
{
    const i32 w = 61, h = 45;
    for (const i32 stride : {1, 2, 4, 8}) {
        // A periphery sampled on even frames, a stride-1 fovea and a
        // strided patch whose R rows do not line up with the periphery's.
        const std::vector<EncodedFrame> frames = encodeWithLabels(
            w, h,
            {{0, 0, w, h, stride, 2, 0},
             {9, 5, 20, 14, 1, 1, 0},
             {30, 3, 27, 37, stride, 1, 0}},
            5, 0x51u * static_cast<u64>(stride));
        // The oldest history frame is dense over the left half, so some
        // unresolved pixels fill from history and the rest stay black.
        const std::vector<EncodedFrame> dense =
            encodeWithLabels(w, h, {{0, 0, w / 2, h, 1, 1, 0}}, 1, 99);
        for (const int max_upscan : {0, 1, 3, 64}) {
            SoftwareDecoder::Config cfg;
            cfg.max_upscan = max_upscan;
            // frames[0] (t = 4) samples the periphery; frames[1] skips it.
            for (size_t cur = 0; cur < 2; ++cur) {
                std::vector<const EncodedFrame *> history;
                for (size_t k = cur + 1; k < frames.size(); ++k)
                    history.push_back(&frames[k]);
                history.push_back(&dense[0]);
                expectMatchesReference(
                    frames[cur], history, cfg,
                    "stride=" + std::to_string(stride) +
                        " max_upscan=" + std::to_string(max_upscan) +
                        " cur=" + std::to_string(cur));
            }
        }
    }
}

/**
 * History frames whose region layouts differ from the current frame's:
 * only two short skipped strips, far apart, need history, so the lazy
 * history carries jump over the rows between them.
 */
TEST(DecoderCarry, HistoryWithOtherLayoutsCatchesUpLazily)
{
    const i32 w = 64, h = 96;
    // Encoded at t = 2: both phase-1 strips are skipped (Sk).
    const std::vector<EncodedFrame> current = encodeWithLabels(
        w, h,
        {{0, 0, w, 20, 1, 1, 0},
         {0, 20, w, 4, 2, 2, 1},
         {0, 50, w, 30, 3, 1, 0},
         {0, 80, w, 3, 3, 2, 1}},
        3, 7);
    ASSERT_GT(current[0].mask.histogram()[static_cast<size_t>(
                  PixelCode::Sk)],
              0u);

    const std::vector<EncodedFrame> scattered =
        encodeSequence(w, h, ComparisonMode::Hybrid, 21);
    const std::vector<EncodedFrame> sparse =
        encodeWithLabels(w, h, {{0, 0, w, h, 8, 1, 0}}, 1, 31);
    const std::vector<EncodedFrame> lower =
        encodeWithLabels(w, h, {{5, 40, 50, 56, 4, 1, 0}}, 1, 41);
    const std::vector<const EncodedFrame *> history = {
        &scattered[0], &sparse[0], &scattered[2], &lower[0]};

    for (const int max_upscan : {0, 2, 5, 64}) {
        SoftwareDecoder::Config cfg;
        cfg.max_upscan = max_upscan;
        expectMatchesReference(current[0], history, cfg,
                               "max_upscan=" + std::to_string(max_upscan));
    }
}

/**
 * A frame that passes validate() while its mask claims more R codes than
 * its row offsets and payload hold: sources past the payload end demote
 * the pixel to history, whether that frame is the current one or a
 * history frame.
 */
TEST(DecoderCarry, MaskOffsetDisagreementDemotesToHistory)
{
    const i32 w = 40, h = 32;
    // t = 2 samples the stride-4 periphery, t = 3 and t = 1 skip it.
    const std::vector<EncodedFrame> frames = encodeWithLabels(
        w, h, {{0, 0, w, h, 4, 2, 0}, {4, 4, 16, 12, 1, 1, 0}}, 4, 61);
    const EncodedFrame &sampled = frames[1];

    // Row h - 4 is an R row of the periphery grid; mark it all R, so its
    // R pixels past the first w / 4 and the St rows below it carry
    // payload offsets beyond the end of the payload.
    EncodedFrame bad = sampled;
    for (i32 x = 0; x < w; ++x)
        bad.mask.set(x, h - 4, PixelCode::R);
    ASSERT_TRUE(bad.validate());

    const std::vector<const EncodedFrame *> older = {&frames[2],
                                                     &frames[3]};
    EXPECT_GT(referenceDecode(bad, older).history_fills,
              referenceDecode(sampled, older).history_fills)
        << "the corrupt rows must reach the history fallback";

    const std::vector<const EncodedFrame *> with_bad = {&bad, &frames[2],
                                                        &frames[3]};
    for (const int max_upscan : {0, 3, 64}) {
        SoftwareDecoder::Config cfg;
        cfg.max_upscan = max_upscan;
        const std::string bound = " max_upscan=" + std::to_string(max_upscan);
        expectMatchesReference(bad, older, cfg, "bad current" + bound);
        expectMatchesReference(frames[0], with_bad, cfg,
                               "bad history" + bound);
    }
}

/**
 * The carry's source row never decreases along x, so one threshold per
 * (frame, row) stands in for a per-column upscan check. Random masks
 * (empty, sparse and dense rows), upscan bounds and sweep starts: the
 * first sweep primes from max_upscan rows above a random start row, and
 * later ones jump rows the way lazy history carries do. After every
 * sweep the steps strictly increase, x >= threshold(min_row) holds
 * exactly where the brute-force source row reaches min_row, and every
 * column with a source carries its brute-force offset and byte.
 */
TEST(DecoderCarry, ThresholdMatchesBruteForceSourceRows)
{
    Rng rng(0x7e57);
    for (int trial = 0; trial < 60; ++trial) {
        const i32 w = static_cast<i32>(rng.uniformInt(1, 90));
        const i32 h = static_cast<i32>(rng.uniformInt(1, 40));
        EncodedFrame f;
        f.width = w;
        f.height = h;
        f.mask = EncMask(w, h);
        for (i32 y = 0; y < h; ++y) {
            const i64 density = std::array<i64, 4>{0, 5, 30, 100}
                [static_cast<size_t>(rng.uniformInt(0, 3))];
            for (i32 x = 0; x < w; ++x)
                f.mask.set(x, y,
                           rng.uniformInt(0, 99) < density
                               ? PixelCode::R
                               : static_cast<PixelCode>(
                                     rng.uniformInt(0, 2)));
        }
        f.offsets = RowOffsets(f.mask);
        f.pixels.resize(f.offsets.total());
        for (u8 &b : f.pixels)
            b = static_cast<u8>(rng.uniformInt(0, 255));

        const int max_upscan = static_cast<int>(rng.uniformInt(0, h + 1));
        SourceCarry carry;
        carry.bind(f, /*values=*/true);
        std::vector<bool> swept(static_cast<size_t>(h), false);
        for (i32 y = static_cast<i32>(rng.uniformInt(0, h - 1)); y < h;
             y += static_cast<i32>(rng.uniformInt(1, 4))) {
            const i32 from = minSourceRow(y, max_upscan);
            for (i32 r = std::max(carry.next_row, from); r <= y; ++r)
                swept[static_cast<size_t>(r)] = true;
            carry.advanceTo(y, from);
            const std::string where = "trial=" + std::to_string(trial) +
                                      " y=" + std::to_string(y);

            for (size_t i = 1; i < carry.steps.size(); ++i) {
                ASSERT_LT(carry.steps[i - 1].x, carry.steps[i].x) << where;
                ASSERT_LT(carry.steps[i - 1].row, carry.steps[i].row)
                    << where;
            }
            // Brute force: the last swept row with an R at or left of x.
            std::vector<i32> src_row(static_cast<size_t>(w), -1);
            std::vector<u32> src_off(static_cast<size_t>(w), 0);
            for (i32 r = 0; r <= y; ++r) {
                if (!swept[static_cast<size_t>(r)])
                    continue;
                u32 seen = 0;
                for (i32 x = 0; x < w; ++x) {
                    seen += f.mask.at(x, r) == PixelCode::R ? 1u : 0u;
                    if (seen > 0) {
                        src_row[static_cast<size_t>(x)] = r;
                        src_off[static_cast<size_t>(x)] =
                            f.offsets.offsetOf(r) + seen - 1;
                    }
                }
            }
            for (i32 min_row = 0; min_row <= y + 1; ++min_row) {
                const size_t thr = carry.threshold(min_row);
                for (size_t x = 0; x < static_cast<size_t>(w); ++x)
                    ASSERT_EQ(x >= thr, src_row[x] >= min_row)
                        << where << " min_row=" << min_row << " x=" << x;
            }
            for (size_t x = 0; x < static_cast<size_t>(w); ++x) {
                if (src_row[x] < 0)
                    continue;
                ASSERT_EQ(carry.offset[x], src_off[x]) << where;
                ASSERT_EQ(carry.value[x], f.pixels[src_off[x]]) << where;
            }
            for (i32 x = 0; x < w; ++x)
                ASSERT_EQ(carry.codes[static_cast<size_t>(x)],
                          static_cast<u8>(f.mask.at(x, y)))
                    << where;
            EXPECT_FALSE(carry.overrun) << where;
        }
    }
}

} // namespace
} // namespace rpx
