#include "isp/color.hpp"

#include "common/error.hpp"

namespace rpx {

YuvImage
rgbToYuv(const Image &rgb)
{
    if (rgb.channels() != 3)
        throwInvalid("rgbToYuv expects an RGB image");
    YuvImage out{
        Image(rgb.width(), rgb.height(), PixelFormat::Gray8),
        Image(rgb.width(), rgb.height(), PixelFormat::Gray8),
        Image(rgb.width(), rgb.height(), PixelFormat::Gray8),
    };
    for (i32 y = 0; y < rgb.height(); ++y) {
        const u8 *src = rgb.row(y);
        u8 *py = out.y.row(y);
        u8 *pu = out.u.row(y);
        u8 *pv = out.v.row(y);
        for (i32 x = 0; x < rgb.width(); ++x) {
            const double r = src[3 * static_cast<size_t>(x) + 0];
            const double g = src[3 * static_cast<size_t>(x) + 1];
            const double b = src[3 * static_cast<size_t>(x) + 2];
            py[x] = clampToU8(0.299 * r + 0.587 * g + 0.114 * b);
            pu[x] = clampToU8(128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b);
            pv[x] = clampToU8(128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b);
        }
    }
    return out;
}

Image
yuvToRgb(const YuvImage &yuv)
{
    const Image &py = yuv.y;
    if (py.width() != yuv.u.width() || py.width() != yuv.v.width() ||
        py.height() != yuv.u.height() || py.height() != yuv.v.height()) {
        throwInvalid("yuvToRgb planes must be the same size");
    }
    Image rgb(py.width(), py.height(), PixelFormat::Rgb8);
    for (i32 y = 0; y < py.height(); ++y) {
        u8 *dst = rgb.row(y);
        for (i32 x = 0; x < py.width(); ++x) {
            const double yy = py.at(x, y);
            const double cb = yuv.u.at(x, y) - 128.0;
            const double cr = yuv.v.at(x, y) - 128.0;
            dst[3 * static_cast<size_t>(x) + 0] =
                clampToU8(yy + 1.402 * cr);
            dst[3 * static_cast<size_t>(x) + 1] =
                clampToU8(yy - 0.344136 * cb - 0.714136 * cr);
            dst[3 * static_cast<size_t>(x) + 2] =
                clampToU8(yy + 1.772 * cb);
        }
    }
    return rgb;
}

Image
rgbToGray(const Image &rgb)
{
    return rgb.toGray();
}

} // namespace rpx
