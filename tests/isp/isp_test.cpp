/** @file Unit tests for the ISP stages: demosaic, gamma, colour, chain. */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "isp/color.hpp"
#include "isp/demosaic.hpp"
#include "isp/gamma.hpp"
#include "core/encoder.hpp"
#include "isp/isp_pipeline.hpp"
#include "reference_isp.hpp"
#include "sensor/sensor.hpp"

namespace rpx {
namespace {

Image
uniformBayer(i32 w, i32 h, u8 r, u8 g, u8 b)
{
    Image raw(w, h, PixelFormat::BayerRggb);
    for (i32 y = 0; y < h; ++y) {
        for (i32 x = 0; x < w; ++x) {
            u8 v;
            if ((y & 1) == 0)
                v = ((x & 1) == 0) ? r : g;
            else
                v = ((x & 1) == 0) ? g : b;
            raw.set(x, y, v);
        }
    }
    return raw;
}

TEST(Demosaic, UniformColorReconstructedExactly)
{
    const Image raw = uniformBayer(8, 8, 120, 60, 30);
    const Image rgb = demosaicBilinear(raw);
    // Interior pixels see balanced neighbourhoods; uniform input must give
    // uniform output.
    for (i32 y = 2; y < 6; ++y) {
        for (i32 x = 2; x < 6; ++x) {
            EXPECT_EQ(rgb.at(x, y, 0), 120);
            EXPECT_EQ(rgb.at(x, y, 1), 60);
            EXPECT_EQ(rgb.at(x, y, 2), 30);
        }
    }
}

TEST(Demosaic, RejectsNonBayer)
{
    Image gray(4, 4);
    EXPECT_THROW(demosaicBilinear(gray), std::invalid_argument);
}

TEST(Gamma, IdentityWhenGammaOne)
{
    GammaLut lut(1.0);
    for (int v = 0; v < 256; v += 17)
        EXPECT_EQ(lut.apply(static_cast<u8>(v)), v);
}

TEST(Gamma, EncodeBrightensMidtones)
{
    GammaLut lut(1.0 / 2.2);
    EXPECT_EQ(lut.apply(0), 0);
    EXPECT_EQ(lut.apply(255), 255);
    EXPECT_GT(lut.apply(64), 64);
}

TEST(Gamma, MonotoneNondecreasing)
{
    GammaLut lut(1.0 / 2.2);
    for (int v = 1; v < 256; ++v)
        EXPECT_GE(lut.apply(static_cast<u8>(v)),
                  lut.apply(static_cast<u8>(v - 1)));
}

TEST(Gamma, RejectsNonPositive)
{
    EXPECT_THROW(GammaLut(0.0), std::invalid_argument);
}

TEST(Color, RgbYuvRoundTrip)
{
    Image rgb(4, 4, PixelFormat::Rgb8);
    for (i32 y = 0; y < 4; ++y) {
        for (i32 x = 0; x < 4; ++x) {
            rgb.set(x, y, 0, static_cast<u8>(40 * x));
            rgb.set(x, y, 1, static_cast<u8>(50 * y));
            rgb.set(x, y, 2, 90);
        }
    }
    const YuvImage yuv = rgbToYuv(rgb);
    const Image back = yuvToRgb(yuv);
    for (i32 y = 0; y < 4; ++y)
        for (i32 x = 0; x < 4; ++x)
            for (int c = 0; c < 3; ++c)
                EXPECT_NEAR(back.at(x, y, c), rgb.at(x, y, c), 3);
}

TEST(Color, GrayNeutralHasCenteredChroma)
{
    Image rgb(2, 2, PixelFormat::Rgb8, 128);
    const YuvImage yuv = rgbToYuv(rgb);
    EXPECT_EQ(yuv.y.at(0, 0), 128);
    EXPECT_EQ(yuv.u.at(0, 0), 128);
    EXPECT_EQ(yuv.v.at(0, 0), 128);
}

Image
noiseBayer(i32 w, i32 h, u64 seed)
{
    Rng rng(seed);
    Image raw(w, h, PixelFormat::BayerRggb);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            raw.set(x, y, static_cast<u8>(rng.uniformInt(0, 255)));
    return raw;
}

/** Reference demosaic: the per-pixel bounds-checked 3x3 walk. */
Image
referenceDemosaic(const Image &bayer)
{
    const auto site = [](i32 x, i32 y) {
        if ((y & 1) == 0)
            return ((x & 1) == 0) ? 0 : 1;
        return ((x & 1) == 0) ? 1 : 2;
    };
    Image rgb(bayer.width(), bayer.height(), PixelFormat::Rgb8);
    for (i32 y = 0; y < bayer.height(); ++y) {
        for (i32 x = 0; x < bayer.width(); ++x) {
            for (int c = 0; c < 3; ++c) {
                if (site(x, y) == c) {
                    rgb.set(x, y, c, bayer.at(x, y));
                    continue;
                }
                int sum = 0, n = 0;
                for (i32 dy = -1; dy <= 1; ++dy) {
                    for (i32 dx = -1; dx <= 1; ++dx) {
                        if (!bayer.inBounds(x + dx, y + dy))
                            continue;
                        if (site(x + dx, y + dy) == c) {
                            sum += bayer.at(x + dx, y + dy);
                            ++n;
                        }
                    }
                }
                rgb.set(x, y, c,
                        n > 0 ? static_cast<u8>(sum / n) : u8{0});
            }
        }
    }
    return rgb;
}

TEST(Demosaic, FastPathMatchesReferenceWalk)
{
    // Odd geometries put the interior fast path's row ends everywhere,
    // and tiny frames take the all-generic branch.
    for (const auto &[w, h] : std::initializer_list<std::pair<i32, i32>>{
             {2, 2}, {3, 3}, {8, 8}, {21, 17}, {16, 9}, {33, 32}}) {
        const Image raw = noiseBayer(w, h, 7u * static_cast<u64>(w + h));
        const Image want = referenceDemosaic(raw);
        Image got;
        demosaicBilinearInto(raw, got);
        ASSERT_EQ(got.data(), want.data()) << w << "x" << h;
        ASSERT_EQ(demosaicBilinear(raw).data(), want.data());
    }
}

TEST(Gamma, ImageApplyMatchesPerByteLut)
{
    GammaLut lut(1.0 / 2.2);
    Image base(31, 17, PixelFormat::Rgb8);
    Rng rng(5);
    for (u8 &b : base.data())
        b = static_cast<u8>(rng.uniformInt(0, 255));
    Image img = base;
    lut.apply(img);
    for (size_t i = 0; i < base.data().size(); ++i)
        ASSERT_EQ(img.data()[i], lut.apply(base.data()[i])) << "i=" << i;
}

TEST(Color, RgbToGrayIntoMatchesToGray)
{
    Image rgb(13, 9, PixelFormat::Rgb8);
    Rng rng(9);
    for (u8 &b : rgb.data())
        b = static_cast<u8>(rng.uniformInt(0, 255));
    Image gray;
    rgbToGrayInto(rgb, gray);
    EXPECT_EQ(gray.data(), rgb.toGray().data());

    Image already(5, 5, PixelFormat::Gray8, 42);
    rgbToGrayInto(already, gray);
    EXPECT_EQ(gray.data(), already.data());
}

TEST(IspPipeline, ProcessIntoMatchesProcess)
{
    for (const IspOutput output : {IspOutput::Gray, IspOutput::Rgb}) {
        IspConfig cfg;
        cfg.output = output;
        IspPipeline a(cfg);
        IspPipeline b(cfg);
        Image out;
        for (int t = 0; t < 3; ++t) {
            const Image raw = noiseBayer(22, 14, 100 + t);
            const Image want = a.process(raw);
            b.processInto(raw, out); // `out` is reused across frames
            ASSERT_EQ(out.data(), want.data()) << "frame " << t;
            ASSERT_EQ(out.channels(), want.channels());
        }
        // Gray pass-through input, too.
        Image gray(10, 6, PixelFormat::Gray8, 80);
        const Image want = a.process(gray);
        b.processInto(gray, out);
        EXPECT_EQ(out.data(), want.data());
        EXPECT_EQ(a.budget().pixels(), b.budget().pixels());
        EXPECT_EQ(a.budget().cycles(), b.budget().cycles());
    }
}

TEST(IspPipeline, ProcessMatchesStagedDenseChain)
{
    for (const auto &[w, h] : std::initializer_list<std::pair<i32, i32>>{
             {2, 2}, {3, 3}, {21, 17}, {97, 63}}) {
        const Image raw = noiseBayer(w, h, 3u * static_cast<u64>(w + h));
        IspPipeline isp;
        ASSERT_EQ(isp.process(raw).data(),
                  denseIspGray(raw, isp.config().gamma).data())
            << w << "x" << h;
    }
}

/**
 * The kept-pixel ISP against the staged dense chain: at every R position
 * of the frame plan the byte is the dense ISP's, every other pixel is 0,
 * and the modelled timing is the full frame's. The label sets put runs
 * on rows and columns 0 and w-1 / h-1 (the bounds-checked border path),
 * strided and overlapping, on odd geometries.
 */
TEST(IspPipeline, KeptRunsMatchDenseIsp)
{
    Rng rng(41);
    for (const auto &[w, h] : std::initializer_list<std::pair<i32, i32>>{
             {97, 63}, {64, 48}, {5, 3}}) {
        const Image raw = noiseBayer(w, h, static_cast<u64>(w * h));
        std::vector<std::vector<RegionLabel>> label_sets = {
            {{0, 0, w, h, 3, 1, 0},
             {w - 1, 0, 1, h, 1, 1, 0},
             {0, h - 1, w, 1, 2, 1, 0}},
            {{0, 0, w, h, 4, 2, 0}, {w / 4, h / 4, w / 2, h / 2, 1, 1, 0}},
        };
        std::vector<RegionLabel> scattered;
        for (int i = 0; i < 40; ++i) {
            RegionLabel r;
            r.w = static_cast<i32>(rng.uniformInt(1, w));
            r.h = static_cast<i32>(rng.uniformInt(1, h));
            r.x = static_cast<i32>(rng.uniformInt(-r.w / 2, w - 1));
            r.y = static_cast<i32>(rng.uniformInt(-r.h / 2, h - 1));
            r.stride = static_cast<i32>(rng.uniformInt(1, 4));
            scattered.push_back(r);
        }
        label_sets.push_back(scattered);

        for (std::vector<RegionLabel> &labels : label_sets) {
            sortRegionsByY(labels);
            RhythmicEncoder enc(w, h);
            enc.setRegionLabels(labels);
            IspPipeline isp;
            IspPipeline dense_isp;
            const Image dense = denseIspGray(raw, isp.config().gamma);
            for (FrameIndex t = 0; t < 2; ++t) {
                const KeptRunPlan &plan = enc.planFrame(t);
                Image got;
                isp.processKept(raw, plan, got);
                dense_isp.process(raw);

                Image want(w, h, PixelFormat::Gray8);
                u64 kept = 0;
                for (i32 y = 0; y < h; ++y)
                    for (const KeptSpan &s : plan.spans(y))
                        plan.forEachRun(s, [&](i32 x, u32 n, i32 step) {
                            for (u32 i = 0; i < n; ++i, x += step) {
                                want.set(x, y, dense.at(x, y));
                                ++kept;
                            }
                        });
                EXPECT_EQ(kept, plan.kept());
                ASSERT_EQ(got.data(), want.data())
                    << w << "x" << h << " t=" << t;
            }
            EXPECT_EQ(isp.budget().pixels(), dense_isp.budget().pixels());
            EXPECT_EQ(isp.budget().cycles(), dense_isp.budget().cycles());
        }
    }
}

/**
 * The luma tables against the BT.601 formula they replace, at every
 * (r, g, b) byte triple, at the default gamma and at gamma 1 (where the
 * formula is Image::toGray's). A table sum reordered, or either side
 * contracted into a fused multiply-add, shows up as a mismatched byte.
 */
TEST(IspPipeline, LumaTablesMatchBt601AtEveryTriple)
{
    for (const double gamma : {IspConfig{}.gamma, 1.0}) {
        const GammaLut lut(gamma);
        const LumaTables tables(lut);
        u64 mismatches = 0;
        for (int r = 0; r < 256; ++r) {
            const double gr = lut.apply(static_cast<u8>(r));
            for (int g = 0; g < 256; ++g) {
                const double gg = lut.apply(static_cast<u8>(g));
                for (int b = 0; b < 256; ++b) {
                    const double gb = lut.apply(static_cast<u8>(b));
                    const u8 want =
                        clampToU8(0.299 * gr + 0.587 * gg + 0.114 * gb);
                    if (tables.luma(static_cast<u8>(r), static_cast<u8>(g),
                                    static_cast<u8>(b)) != want)
                        ++mismatches;
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "gamma " << gamma;
    }
}

TEST(IspPipeline, ProcessesBayerToGray)
{
    IspConfig cfg;
    cfg.gamma = 1.0; // identity for exact checks
    IspPipeline isp(cfg);
    const Image raw = uniformBayer(8, 8, 100, 100, 100);
    const Image out = isp.process(raw);
    EXPECT_EQ(out.channels(), 1);
    EXPECT_EQ(out.at(4, 4), 100);
}

TEST(IspPipeline, MeetsTwoPixelPerClockBudget)
{
    IspPipeline isp;
    const Image raw = uniformBayer(64, 64, 10, 20, 30);
    isp.process(raw);
    isp.process(raw);
    EXPECT_TRUE(isp.budget().withinBudget());
    EXPECT_EQ(isp.budget().pixels(), 2u * 64u * 64u);
}

TEST(IspPipeline, GrayPassThrough)
{
    IspConfig cfg;
    cfg.gamma = 1.0;
    IspPipeline isp(cfg);
    Image gray(8, 8, PixelFormat::Gray8, 77);
    EXPECT_EQ(isp.process(gray).at(3, 3), 77);
}

} // namespace
} // namespace rpx
