#include "vision/pyramid.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rpx {

ImagePyramid::ImagePyramid(const Image &base, const PyramidOptions &options)
{
    if (base.channels() != 1)
        throwInvalid("pyramid expects a grayscale base image");
    if (options.levels < 1)
        throwInvalid("pyramid needs at least one level");
    if (options.scale_factor <= 1.0)
        throwInvalid("pyramid scale factor must exceed 1.0");

    levels_.push_back({base, 1.0});
    for (int i = 1; i < options.levels; ++i) {
        const double scale = std::pow(options.scale_factor, i);
        const i32 w = static_cast<i32>(base.width() / scale);
        const i32 h = static_cast<i32>(base.height() / scale);
        if (w < options.min_dimension || h < options.min_dimension)
            break;
        levels_.push_back({base.resized(w, h), scale});
    }
}

const PyramidLevel &
ImagePyramid::level(size_t i) const
{
    RPX_ASSERT(i < levels_.size(), "pyramid level out of range");
    return levels_[i];
}

Point
ImagePyramid::toBase(size_t level_idx, i32 x, i32 y) const
{
    const double s = level(level_idx).scale;
    return {static_cast<i32>(std::lround(x * s)),
            static_cast<i32>(std::lround(y * s))};
}

Image
boxBlur3(const Image &gray)
{
    RPX_ASSERT(gray.channels() == 1, "boxBlur3 expects grayscale");
    if (gray.empty())
        return gray;
    const i32 w = gray.width();
    const i32 h = gray.height();
    Image tmp(w, h, PixelFormat::Gray8);
    Image out(w, h, PixelFormat::Gray8);
    // Horizontal pass; the border pixel stands in for its missing
    // neighbour (clamp-to-edge). The interior loop has no branch, so the
    // compiler vectorises it (at -O3).
    for (i32 y = 0; y < h; ++y) {
        const u8 *src = gray.row(y);
        u8 *dst = tmp.row(y);
        if (w == 1) {
            dst[0] = src[0];
            continue;
        }
        dst[0] = static_cast<u8>((2 * src[0] + src[1]) / 3);
        for (i32 x = 1; x + 1 < w; ++x)
            dst[x] = static_cast<u8>((src[x - 1] + src[x] + src[x + 1]) / 3);
        dst[w - 1] = static_cast<u8>((src[w - 2] + 2 * src[w - 1]) / 3);
    }
    // Vertical pass.
    for (i32 y = 0; y < h; ++y) {
        const u8 *up = tmp.row(y > 0 ? y - 1 : 0);
        const u8 *mid = tmp.row(y);
        const u8 *down = tmp.row(y + 1 < h ? y + 1 : h - 1);
        u8 *dst = out.row(y);
        for (i32 x = 0; x < w; ++x)
            dst[x] = static_cast<u8>((up[x] + mid[x] + down[x]) / 3);
    }
    return out;
}

} // namespace rpx
