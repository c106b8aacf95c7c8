#include "isp/isp_pipeline.hpp"

#include "common/error.hpp"
#include "isp/demosaic.hpp"

namespace rpx {

namespace {

/**
 * Fused demosaic -> gamma -> luma over the sites x, x + step, ... of row
 * y (count of them), written to the same columns of `dst`. Interior
 * sites take the row-pointer demosaic, border sites the bounds-checked
 * one; gamma and luma are the tables' lookups.
 */
void
grayRun(const Image &raw, const LumaTables &luma, i32 y, i32 x, u32 count,
        i32 step, u8 *dst)
{
    const i32 w = raw.width();
    const i32 h = raw.height();
    const bool inner_row = y > 0 && y + 1 < h;
    const u8 *rm = inner_row ? raw.row(y - 1) : nullptr;
    const u8 *r0 = raw.row(y);
    const u8 *rp = inner_row ? raw.row(y + 1) : nullptr;
    const bool odd_row = (y & 1) != 0;
    u8 rgb[3];
    for (u32 i = 0; i < count; ++i, x += step) {
        if (inner_row && x > 0 && x + 1 < w)
            demosaicInterior(rm, r0, rp, x, odd_row, rgb);
        else
            demosaicSite(raw, x, y, rgb);
        dst[x] = luma.luma(rgb[0], rgb[1], rgb[2]);
    }
}

} // namespace

LumaTables::LumaTables(const GammaLut &gamma)
{
    for (int v = 0; v < 256; ++v) {
        const double g = gamma.apply(static_cast<u8>(v));
        const size_t i = static_cast<size_t>(v);
        r_[i] = 0.299 * g;
        g_[i] = 0.587 * g;
        b_[i] = 0.114 * g;
    }
}

IspPipeline::IspPipeline(const IspConfig &config)
    : config_(config), gamma_(config.gamma),
      budget_(config.pixels_per_clock)
{
}

const LumaTables &
IspPipeline::lumaTables()
{
    if (!luma_)
        luma_ = std::make_unique<const LumaTables>(gamma_);
    return *luma_;
}

Image
IspPipeline::process(const Image &raw)
{
    Image out;
    processInto(raw, out);
    return out;
}

void
IspPipeline::chargeFrame(const Image &raw)
{
    budget_.addPixels(static_cast<u64>(raw.pixelCount()));
    // The hardware ISP is a fixed-function systolic chain that sustains
    // 2 px/clk; model every frame as exactly meeting that rate.
    budget_.addCycles(static_cast<Cycles>(
        static_cast<double>(raw.pixelCount()) / config_.pixels_per_clock));
}

void
IspPipeline::processInto(const Image &raw, Image &out)
{
    chargeFrame(raw);
    if (raw.format() != PixelFormat::BayerRggb) {
        out = raw;
        gamma_.apply(out);
        return;
    }
    if (config_.output == IspOutput::Gray) {
        const LumaTables &luma = lumaTables();
        out.reinit(raw.width(), raw.height(), PixelFormat::Gray8);
        for (i32 y = 0; y < raw.height(); ++y)
            grayRun(raw, luma, y, 0, static_cast<u32>(raw.width()), 1,
                    out.row(y));
        return;
    }
    demosaicBilinearInto(raw, out);
    gamma_.apply(out);
}

void
IspPipeline::processKept(const Image &raw, const KeptRunPlan &plan,
                         Image &out)
{
    if (raw.format() != PixelFormat::BayerRggb ||
        config_.output != IspOutput::Gray) {
        processInto(raw, out);
        return;
    }
    if (plan.width() != raw.width() || plan.height() != raw.height())
        throwInvalid("kept-run plan is ", plan.width(), "x", plan.height(),
                     ", frame is ", raw.width(), "x", raw.height());
    chargeFrame(raw);
    const LumaTables &luma = lumaTables();
    out.reinit(raw.width(), raw.height(), PixelFormat::Gray8);
    for (i32 y = 0; y < raw.height(); ++y) {
        u8 *dst = out.row(y);
        for (const KeptSpan &s : plan.spans(y))
            plan.forEachRun(s, [&](i32 x, u32 count, i32 step) {
                grayRun(raw, luma, y, x, count, step, dst);
            });
    }
}

} // namespace rpx
