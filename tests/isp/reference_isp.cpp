#include "reference_isp.hpp"

#include "isp/demosaic.hpp"
#include "isp/gamma.hpp"

namespace rpx {

void
rgbToGrayInto(const Image &rgb, Image &gray)
{
    if (rgb.channels() == 1) {
        gray = rgb;
        return;
    }
    gray.reinit(rgb.width(), rgb.height(), PixelFormat::Gray8);
    for (i32 y = 0; y < rgb.height(); ++y) {
        const u8 *src = rgb.row(y);
        u8 *dst = gray.row(y);
        for (i32 x = 0; x < rgb.width(); ++x) {
            const double r = src[3 * static_cast<size_t>(x) + 0];
            const double g = src[3 * static_cast<size_t>(x) + 1];
            const double b = src[3 * static_cast<size_t>(x) + 2];
            dst[x] = clampToU8(0.299 * r + 0.587 * g + 0.114 * b);
        }
    }
}

Image
denseIspGray(const Image &raw, double gamma)
{
    Image rgb;
    demosaicBilinearInto(raw, rgb);
    GammaLut(gamma).apply(rgb);
    Image gray;
    rgbToGrayInto(rgb, gray);
    return gray;
}

} // namespace rpx
