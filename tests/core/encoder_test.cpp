/** @file Unit tests for the rhythmic pixel encoder. */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "frame/draw.hpp"
#include "reference_encode.hpp"

namespace rpx {
namespace {

Image
rampFrame(i32 w, i32 h)
{
    Image img(w, h);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            img.set(x, y, static_cast<u8>((x + 7 * y) & 0xff));
    return img;
}

TEST(Encoder, FullFrameRegionKeepsEverything)
{
    RhythmicEncoder enc(16, 12);
    enc.setRegionLabels({fullFrameRegion(16, 12)});
    const Image frame = rampFrame(16, 12);
    const EncodedFrame out = enc.encodeFrame(frame, 0);
    out.checkConsistency();
    EXPECT_EQ(out.pixels.size(), 16u * 12u);
    EXPECT_DOUBLE_EQ(out.keptFraction(), 1.0);
    // Raster order preserved.
    for (i32 i = 0; i < 16; ++i)
        EXPECT_EQ(out.pixels[static_cast<size_t>(i)], frame.at(i, 0));
}

TEST(Encoder, NoRegionsKeepsNothing)
{
    RhythmicEncoder::Config cfg;
    RhythmicEncoder enc(8, 8, cfg);
    enc.setRegionLabels({});
    const EncodedFrame out = enc.encodeFrame(rampFrame(8, 8), 0);
    out.checkConsistency();
    EXPECT_TRUE(out.pixels.empty());
    EXPECT_EQ(out.mask.histogram()[static_cast<size_t>(PixelCode::N)],
              64u);
}

TEST(Encoder, SingleRegionPacksRasterOrder)
{
    RhythmicEncoder enc(10, 10);
    enc.setRegionLabels({{2, 3, 4, 2, 1, 1, 0}});
    const Image frame = rampFrame(10, 10);
    const EncodedFrame out = enc.encodeFrame(frame, 0);
    out.checkConsistency();
    ASSERT_EQ(out.pixels.size(), 8u);
    size_t i = 0;
    for (i32 y = 3; y < 5; ++y)
        for (i32 x = 2; x < 6; ++x)
            EXPECT_EQ(out.pixels[i++], frame.at(x, y));
}

TEST(Encoder, StrideDecimatesGrid)
{
    RhythmicEncoder enc(8, 8);
    enc.setRegionLabels({{0, 0, 8, 8, 2, 1, 0}});
    const EncodedFrame out = enc.encodeFrame(rampFrame(8, 8), 0);
    out.checkConsistency();
    EXPECT_EQ(out.pixels.size(), 16u); // 4x4 grid
    EXPECT_EQ(out.mask.at(0, 0), PixelCode::R);
    EXPECT_EQ(out.mask.at(1, 0), PixelCode::St);
    EXPECT_EQ(out.mask.at(0, 1), PixelCode::St);
    EXPECT_EQ(out.mask.at(2, 2), PixelCode::R);
}

TEST(Encoder, SkipMarksTemporal)
{
    RhythmicEncoder enc(8, 8);
    enc.setRegionLabels({{0, 0, 8, 8, 1, 2, 0}});
    const EncodedFrame f0 = enc.encodeFrame(rampFrame(8, 8), 0);
    const EncodedFrame f1 = enc.encodeFrame(rampFrame(8, 8), 1);
    EXPECT_EQ(f0.pixels.size(), 64u);
    EXPECT_TRUE(f1.pixels.empty());
    EXPECT_EQ(f1.mask.at(3, 3), PixelCode::Sk);
    const EncodedFrame f2 = enc.encodeFrame(rampFrame(8, 8), 2);
    EXPECT_EQ(f2.pixels.size(), 64u);
}

TEST(Encoder, OverlapPriorityRBeatsStBeatsSk)
{
    RhythmicEncoder::Config cfg;
    cfg.require_sorted = false;
    RhythmicEncoder enc(12, 12, cfg);
    // Region A: stride 2, active. Region B overlapping, stride 1, skip 2
    // (inactive on frame 1). Region C non-overlapping inactive.
    enc.setRegionLabels({
        {0, 0, 6, 6, 2, 1, 0},   // active strided
        {0, 0, 3, 3, 1, 2, 0},   // inactive at t=1 (skip 2)
    });
    const EncodedFrame out = enc.encodeFrame(rampFrame(12, 12), 1);
    // (1,1): A says St (off grid), B inactive says Sk; St wins.
    EXPECT_EQ(out.mask.at(1, 1), PixelCode::St);
    // (0,0): A grid pixel -> R despite B's Sk.
    EXPECT_EQ(out.mask.at(0, 0), PixelCode::R);
}

TEST(Encoder, MatchesReferenceClassifier)
{
    RhythmicEncoder::Config cfg;
    cfg.require_sorted = false;
    RhythmicEncoder enc(32, 24, cfg);
    const std::vector<RegionLabel> regions = {
        {2, 2, 10, 8, 2, 1, 0},
        {8, 4, 12, 12, 3, 2, 0},
        {-4, 18, 16, 10, 1, 3, 1},
        {20, 0, 30, 6, 2, 2, 0},
    };
    enc.setRegionLabels(regions);
    const Image frame = rampFrame(32, 24);
    for (FrameIndex t = 0; t < 6; ++t) {
        const EncodedFrame out = enc.encodeFrame(frame, t);
        out.checkConsistency();
        for (i32 y = 0; y < 24; ++y) {
            for (i32 x = 0; x < 32; ++x) {
                EXPECT_EQ(out.mask.at(x, y),
                          RhythmicEncoder::classify(regions, x, y, t))
                    << "t=" << t << " (" << x << "," << y << ")";
            }
        }
    }
}

TEST(Encoder, RequiresSortedByDefault)
{
    RhythmicEncoder enc(32, 32);
    std::vector<RegionLabel> unsorted = {
        {0, 20, 5, 5, 1, 1, 0},
        {0, 2, 5, 5, 1, 1, 0},
    };
    EXPECT_THROW(enc.setRegionLabels(unsorted), std::invalid_argument);
    sortRegionsByY(unsorted);
    EXPECT_NO_THROW(enc.setRegionLabels(unsorted));
}

TEST(Encoder, GeometryMismatchThrows)
{
    RhythmicEncoder enc(16, 16);
    enc.setRegionLabels({fullFrameRegion(16, 16)});
    EXPECT_THROW(enc.encodeFrame(rampFrame(8, 8), 0),
                 std::invalid_argument);
    Image rgb(16, 16, PixelFormat::Rgb8);
    EXPECT_THROW(enc.encodeFrame(rgb, 0), std::invalid_argument);
}

TEST(Encoder, WorkSavingsOfHybridVsNaive)
{
    // §4.1.1: the row shortlist + run-length reuse saves comparisons.
    const std::vector<RegionLabel> regions = [] {
        std::vector<RegionLabel> rs;
        Rng rng(3);
        for (int i = 0; i < 50; ++i) {
            rs.push_back({static_cast<i32>(rng.uniformInt(0, 100)),
                          static_cast<i32>(rng.uniformInt(0, 100)),
                          20, 20, 1, 1, 0});
        }
        sortRegionsByY(rs);
        return rs;
    }();

    u64 work[3];
    const ComparisonMode modes[3] = {ComparisonMode::Naive,
                                     ComparisonMode::RowSublist,
                                     ComparisonMode::Hybrid};
    const Image frame = rampFrame(128, 128);
    EncodedFrame outs[3];
    for (int m = 0; m < 3; ++m) {
        RhythmicEncoder::Config cfg;
        cfg.mode = modes[m];
        RhythmicEncoder enc(128, 128, cfg);
        enc.setRegionLabels(regions);
        outs[m] = enc.encodeFrame(frame, 0);
        work[m] = enc.stats().region_comparisons;
    }
    // All modes produce identical output.
    EXPECT_EQ(outs[0].pixels, outs[1].pixels);
    EXPECT_EQ(outs[0].mask, outs[1].mask);
    EXPECT_EQ(outs[1].pixels, outs[2].pixels);
    EXPECT_EQ(outs[1].mask, outs[2].mask);
    // Work strictly shrinks: naive > row sublist > hybrid.
    EXPECT_GT(work[0], work[1]);
    EXPECT_GT(work[1], work[2]);
}

TEST(Encoder, HybridMeetsCycleBudgetWithManyRegions)
{
    std::vector<RegionLabel> regions;
    Rng rng(17);
    for (int i = 0; i < 400; ++i) {
        regions.push_back({static_cast<i32>(rng.uniformInt(0, 600)),
                           static_cast<i32>(rng.uniformInt(0, 440)),
                           30, 30, static_cast<i32>(rng.uniformInt(1, 3)),
                           static_cast<i32>(rng.uniformInt(1, 3)), 0});
    }
    sortRegionsByY(regions);
    RhythmicEncoder enc(640, 480);
    enc.setRegionLabels(regions);
    enc.encodeFrame(rampFrame(640, 480), 0);
    EXPECT_TRUE(enc.withinCycleBudget());
}

TEST(Encoder, RegionFreeRowsStillChargeStreamCycles)
{
    // Regression: rows with an empty shortlist used to return before the
    // cycle model, so sparse frames reported fewer cycles than the pixel
    // stream actually takes. Every row streams at line rate regardless of
    // regions.
    RhythmicEncoder enc(64, 64); // default 2 px/clock -> 32 cycles/row
    enc.setRegionLabels({{8, 8, 8, 8, 1, 1, 0}}); // 56 region-free rows
    enc.encodeFrame(rampFrame(64, 64), 0);
    const EncoderStats &st = enc.stats();
    EXPECT_EQ(st.rows_skipped, 56u);
    EXPECT_EQ(st.stream_cycles, 64u * 32u);
    // Hybrid engine work never exceeds the stream time here, so the
    // modelled cycles equal the budget exactly — not just <=.
    EXPECT_EQ(st.compare_cycles, st.stream_cycles);
    EXPECT_TRUE(enc.withinCycleBudget());
}

TEST(Encoder, StreamCyclesRoundUpPerRow)
{
    // Odd width: 63 px at 2 px/clock is 32 cycles per row, rounded up
    // per row (not once per frame).
    RhythmicEncoder enc(63, 10);
    enc.setRegionLabels({});
    enc.encodeFrame(rampFrame(63, 10), 0);
    EXPECT_EQ(enc.stats().stream_cycles, 10u * 32u);
    EXPECT_EQ(enc.stats().compare_cycles, enc.stats().stream_cycles);
}

TEST(Encoder, NaiveModeChargesEngineCyclesOnSkippedRows)
{
    // Regression: the naive engine checks every region for every pixel
    // even on rows no region covers. With enough labels those rows are
    // engine-bound; pre-fix their cycles were dropped entirely and the
    // encoder claimed to meet the 2 px/clock budget.
    RhythmicEncoder::Config cfg;
    cfg.mode = ComparisonMode::Naive;
    RhythmicEncoder enc(64, 64, cfg);
    std::vector<RegionLabel> regions(64, RegionLabel{0, 0, 4, 4, 1, 1, 0});
    enc.setRegionLabels(regions);
    enc.encodeFrame(rampFrame(64, 64), 0);
    const EncoderStats &st = enc.stats();
    // Rows 4..63: 64 regions x 64 px = 4096 checks -> 256 engine cycles,
    // eight times the 32-cycle stream slot.
    EXPECT_EQ(st.stream_cycles, 64u * 32u);
    EXPECT_GT(st.compare_cycles, st.stream_cycles);
    EXPECT_FALSE(enc.withinCycleBudget());
    // The same row budget is fine for the shortlist-based engine.
    RhythmicEncoder hybrid(64, 64);
    hybrid.setRegionLabels(regions);
    hybrid.encodeFrame(rampFrame(64, 64), 0);
    EXPECT_TRUE(hybrid.withinCycleBudget());
}

TEST(Encoder, SummarizeMatchesEncode)
{
    const std::vector<RegionLabel> regions = {
        {3, 1, 17, 9, 2, 1, 0},
        {10, 8, 20, 14, 3, 2, 0},
        {0, 20, 40, 6, 1, 3, 0},
    };
    RhythmicEncoder::Config cfg;
    cfg.require_sorted = false;
    RhythmicEncoder enc(48, 32, cfg);
    enc.setRegionLabels(regions);
    const Image frame = rampFrame(48, 32);
    for (FrameIndex t = 0; t < 7; ++t) {
        const EncodedFrame out = enc.encodeFrame(frame, t);
        const auto sum = enc.summarizeFrame(t);
        const auto h = out.mask.histogram();
        EXPECT_EQ(sum.r, h[static_cast<size_t>(PixelCode::R)]) << t;
        EXPECT_EQ(sum.st, h[static_cast<size_t>(PixelCode::St)]) << t;
        EXPECT_EQ(sum.sk, h[static_cast<size_t>(PixelCode::Sk)]) << t;
        EXPECT_EQ(sum.n, h[static_cast<size_t>(PixelCode::N)]) << t;
        EXPECT_EQ(sum.metadata_bytes, out.metadataBytes());
        EXPECT_EQ(sum.total(), 48u * 32u);
    }
}

TEST(Encoder, StatsAccumulate)
{
    RhythmicEncoder enc(16, 16);
    enc.setRegionLabels({fullFrameRegion(16, 16)});
    enc.encodeFrame(rampFrame(16, 16), 0);
    enc.encodeFrame(rampFrame(16, 16), 1);
    EXPECT_EQ(enc.stats().frames, 2u);
    EXPECT_EQ(enc.stats().pixels_in, 2u * 256u);
    EXPECT_EQ(enc.stats().pixels_encoded, 2u * 256u);
    enc.resetStats();
    EXPECT_EQ(enc.stats().frames, 0u);
}

/** Property sweep over stride x skip combinations. */
class EncoderStrideSkip
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(EncoderStrideSkip, CountsMatchClosedForm)
{
    const int stride = std::get<0>(GetParam());
    const int skip = std::get<1>(GetParam());
    RhythmicEncoder enc(24, 24);
    enc.setRegionLabels({{4, 4, 13, 11, stride, skip, 0}});
    const Image frame = rampFrame(24, 24);
    for (FrameIndex t = 0; t < 4; ++t) {
        const EncodedFrame out = enc.encodeFrame(frame, t);
        out.checkConsistency();
        if (t % skip == 0) {
            const i64 cols = (13 + stride - 1) / stride;
            const i64 rows = (11 + stride - 1) / stride;
            EXPECT_EQ(static_cast<i64>(out.pixels.size()), cols * rows);
        } else {
            EXPECT_TRUE(out.pixels.empty());
            EXPECT_EQ(out.mask.at(6, 6), PixelCode::Sk);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncoderStrideSkip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));

/**
 * `count` y-sorted labels with overlapping strides 1..max_stride, skips
 * 1–3 and phases, some clipped by every frame edge.
 */
std::vector<RegionLabel>
randomLabels(Rng &rng, i32 w, i32 h, int count, i32 max_stride)
{
    std::vector<RegionLabel> out;
    const i32 max_w = std::max<i32>(2, w / 3);
    const i32 max_h = std::max<i32>(2, h / 3);
    for (int i = 0; i < count; ++i) {
        RegionLabel r;
        r.w = static_cast<i32>(rng.uniformInt(1, max_w));
        r.h = static_cast<i32>(rng.uniformInt(1, max_h));
        r.x = static_cast<i32>(rng.uniformInt(-r.w / 2, w - 1 - r.w / 2));
        r.y = static_cast<i32>(rng.uniformInt(-r.h / 2, h - 1 - r.h / 2));
        r.stride = static_cast<i32>(rng.uniformInt(1, max_stride));
        r.skip = static_cast<i32>(rng.uniformInt(1, 3));
        r.phase = static_cast<i32>(rng.uniformInt(0, r.skip - 1));
        out.push_back(r);
    }
    sortRegionsByY(out);
    return out;
}

void
expectStatsEqual(const EncoderStats &got, const EncoderStats &want)
{
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.pixels_in, want.pixels_in);
    EXPECT_EQ(got.pixels_encoded, want.pixels_encoded);
    EXPECT_EQ(got.region_comparisons, want.region_comparisons);
    EXPECT_EQ(got.selector_examined, want.selector_examined);
    EXPECT_EQ(got.rows_with_regions, want.rows_with_regions);
    EXPECT_EQ(got.rows_skipped, want.rows_skipped);
    EXPECT_EQ(got.run_reuses, want.run_reuses);
    EXPECT_EQ(got.compare_cycles, want.compare_cycles);
    EXPECT_EQ(got.stream_cycles, want.stream_cycles);
}

/**
 * The planned encoder against the per-pixel reference loop: for every
 * comparison mode and attribution setting, over label lists
 * from empty to ~450 overlapping strided grids on odd geometries, the
 * mask bytes, payload, offsets, work counters and per-region attribution
 * are identical, and the summary counts are the mask's. Strides up to 9
 * give span periods longer than the span itself.
 */
TEST(Encoder, PlanMatchesReferenceEncoder)
{
    const ComparisonMode modes[] = {ComparisonMode::Naive,
                                    ComparisonMode::RowSublist,
                                    ComparisonMode::Hybrid};
    const std::pair<i32, i32> geometries[] = {{97, 63}, {64, 37}, {13, 9}};
    Rng rng(2024);
    for (const auto &[w, h] : geometries) {
        for (const auto &[count, max_stride] :
             {std::pair{0, 4}, {1, 4}, {2, 4}, {450, 4}, {60, 9}}) {
            const auto labels =
                randomLabels(rng, w, h, count, max_stride);
            const Image gray = [&, w = w, h = h] {
                Image img(w, h);
                for (u8 &v : img.data())
                    v = static_cast<u8>(rng.uniformInt(0, 255));
                return img;
            }();
            for (const ComparisonMode mode : modes) {
                for (const bool attribute : {false, true}) {
                    RhythmicEncoder::Config cfg;
                    cfg.mode = mode;
                    RhythmicEncoder enc(w, h, cfg);
                    enc.setRegionLabels(labels);
                    enc.enableRegionAttribution(attribute);
                    for (FrameIndex t = 0; t < 3; ++t) {
                        SCOPED_TRACE(testing::Message()
                                     << w << "x" << h << " labels=" << count
                                     << "/" << max_stride
                                     << " mode=" << static_cast<int>(mode)
                                     << " attr=" << attribute
                                     << " t=" << t);
                        const ReferenceEncode ref = referenceEncode(
                            labels, cfg, gray, t, attribute);
                        enc.resetStats();
                        const EncodedFrame got = enc.encodeFrame(gray, t);
                        got.checkConsistency();
                        EXPECT_EQ(got.index, t);
                        EXPECT_EQ(got.mask.bytes(), ref.frame.mask.bytes());
                        EXPECT_EQ(got.pixels, ref.frame.pixels);
                        EXPECT_EQ(got.offsets, ref.frame.offsets);
                        expectStatsEqual(enc.stats(), ref.stats);
                        EXPECT_EQ(enc.lastFrameAttribution().kept,
                                  ref.attr.kept);
                        EXPECT_EQ(enc.lastFrameAttribution().comparisons,
                                  ref.attr.comparisons);

                        const auto sum = enc.summarizeFrame(t);
                        const auto hist = ref.frame.mask.histogram();
                        EXPECT_EQ(sum.r, hist[3]);
                        EXPECT_EQ(sum.sk, hist[2]);
                        EXPECT_EQ(sum.st, hist[1]);
                        EXPECT_EQ(sum.n, hist[0]);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace rpx
