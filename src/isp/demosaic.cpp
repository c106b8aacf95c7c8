#include "isp/demosaic.hpp"

#include "common/error.hpp"

namespace rpx {

namespace {

/** Colour of the RGGB site at (x, y): 0=R, 1=G, 2=B. */
int
siteColor(i32 x, i32 y)
{
    if ((y & 1) == 0)
        return ((x & 1) == 0) ? 0 : 1;
    return ((x & 1) == 0) ? 1 : 2;
}

/** Average of mosaic sites matching `want` in the 3x3 neighbourhood. */
u8
neighborAverage(const Image &bayer, i32 x, i32 y, int want)
{
    int sum = 0;
    int n = 0;
    for (i32 dy = -1; dy <= 1; ++dy) {
        for (i32 dx = -1; dx <= 1; ++dx) {
            const i32 nx = x + dx;
            const i32 ny = y + dy;
            if (!bayer.inBounds(nx, ny))
                continue;
            if (siteColor(nx, ny) == want) {
                sum += bayer.at(nx, ny);
                ++n;
            }
        }
    }
    return n > 0 ? static_cast<u8>(sum / n) : 0;
}

} // namespace

void
demosaicSite(const Image &bayer, i32 x, i32 y, u8 *rgb)
{
    const int own = siteColor(x, y);
    for (int c = 0; c < 3; ++c)
        rgb[c] = (c == own) ? bayer.at(x, y)
                            : neighborAverage(bayer, x, y, c);
}

namespace {

/** The generic bounds-checked path, used for borders and tiny frames. */
void
demosaicGeneric(const Image &bayer, Image &rgb, i32 x0, i32 x1, i32 y)
{
    u8 *out = rgb.row(y);
    for (i32 x = x0; x < x1; ++x)
        demosaicSite(bayer, x, y, out + 3 * static_cast<size_t>(x));
}

} // namespace

void
demosaicBilinearInto(const Image &bayer, Image &rgb)
{
    if (bayer.format() != PixelFormat::BayerRggb)
        throwInvalid("demosaicBilinear expects a BayerRggb frame");
    const i32 w = bayer.width();
    const i32 h = bayer.height();
    rgb.reinit(w, h, PixelFormat::Rgb8);
    if (w < 3 || h < 3) {
        for (i32 y = 0; y < h; ++y)
            demosaicGeneric(bayer, rgb, 0, w, y);
        return;
    }
    demosaicGeneric(bayer, rgb, 0, w, 0);
    for (i32 y = 1; y + 1 < h; ++y) {
        demosaicGeneric(bayer, rgb, 0, 1, y);
        const u8 *rm = bayer.row(y - 1);
        const u8 *r0 = bayer.row(y);
        const u8 *rp = bayer.row(y + 1);
        u8 *out = rgb.row(y);
        for (i32 x = 1; x + 1 < w; ++x)
            demosaicInterior(rm, r0, rp, x, (y & 1) != 0,
                             out + 3 * static_cast<size_t>(x));
        demosaicGeneric(bayer, rgb, w - 1, w, y);
    }
    demosaicGeneric(bayer, rgb, 0, w, h - 1);
}

Image
demosaicBilinear(const Image &bayer)
{
    Image rgb;
    demosaicBilinearInto(bayer, rgb);
    return rgb;
}

} // namespace rpx
