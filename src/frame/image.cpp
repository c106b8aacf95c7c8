#include "frame/image.hpp"

#include <algorithm>
#include <cmath>

namespace rpx {

Image::Image(i32 w, i32 h, PixelFormat fmt)
    : Image(w, h, fmt, 0)
{
}

Image::Image(i32 w, i32 h, PixelFormat fmt, u8 fill_value)
    : width_(w), height_(h), format_(fmt), channels_(channelsFor(fmt))
{
    if (w < 0 || h < 0)
        throwInvalid("Image dimensions must be non-negative: ", w, "x", h);
    data_.assign(static_cast<size_t>(w) * static_cast<size_t>(h) *
                     static_cast<size_t>(channels_),
                 fill_value);
}

u8
Image::atClamped(i32 x, i32 y, int c) const
{
    const i32 cx = std::clamp(x, 0, width_ - 1);
    const i32 cy = std::clamp(y, 0, height_ - 1);
    return at(cx, cy, c);
}

double
Image::bilinear(double x, double y, int c) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const i32 x0 = static_cast<i32>(fx);
    const i32 y0 = static_cast<i32>(fy);
    const double ax = x - fx;
    const double ay = y - fy;
    const double v00 = atClamped(x0, y0, c);
    const double v10 = atClamped(x0 + 1, y0, c);
    const double v01 = atClamped(x0, y0 + 1, c);
    const double v11 = atClamped(x0 + 1, y0 + 1, c);
    return v00 * (1 - ax) * (1 - ay) + v10 * ax * (1 - ay) +
           v01 * (1 - ax) * ay + v11 * ax * ay;
}

void
Image::fill(u8 v)
{
    std::fill(data_.begin(), data_.end(), v);
}

const u8 *
Image::row(i32 y) const
{
    RPX_ASSERT(y >= 0 && y < height_, "Image::row out of bounds");
    return data_.data() + static_cast<size_t>(y) *
                              static_cast<size_t>(width_) *
                              static_cast<size_t>(channels_);
}

u8 *
Image::row(i32 y)
{
    RPX_ASSERT(y >= 0 && y < height_, "Image::row out of bounds");
    return data_.data() + static_cast<size_t>(y) *
                              static_cast<size_t>(width_) *
                              static_cast<size_t>(channels_);
}

Image
Image::crop(const Rect &r) const
{
    const Rect c = r.clippedTo(width_, height_);
    Image out(c.w, c.h, format_);
    for (i32 y = 0; y < c.h; ++y) {
        const u8 *src = row(c.y + y) +
                        static_cast<size_t>(c.x) *
                            static_cast<size_t>(channels_);
        std::copy(src,
                  src + static_cast<size_t>(c.w) *
                            static_cast<size_t>(channels_),
                  out.row(y));
    }
    return out;
}

Image
Image::resized(i32 w, i32 h, bool bilinear_filter) const
{
    if (w <= 0 || h <= 0)
        throwInvalid("Image::resized target must be positive: ", w, "x", h);
    Image out(w, h, format_);
    if (empty())
        return out;
    const double sx = static_cast<double>(width_) / w;
    const double sy = static_cast<double>(height_) / h;
    const size_t ch = static_cast<size_t>(channels_);

    // Each output pixel samples the source at the pixel center
    // ((x + 0.5) * sx - 0.5, (y + 0.5) * sy - 0.5). The two source columns
    // (rows) and the weight of the second depend on x (y) alone, so they
    // are found once per column (row), with the border clamp applied.
    struct Tap {
        size_t i0; //!< first source column (row), clamped
        size_t i1; //!< second source column (row), clamped
        double a;  //!< weight of the second
    };
    const auto taps = [&](i32 n, double scale, i32 limit) {
        std::vector<Tap> out_taps(static_cast<size_t>(n));
        for (i32 i = 0; i < n; ++i) {
            const double src = (i + 0.5) * scale - 0.5;
            i32 i0, i1;
            double a = 0.0;
            if (bilinear_filter) {
                const double f = std::floor(src);
                i0 = static_cast<i32>(f);
                i1 = i0 + 1;
                a = src - f;
            } else {
                i0 = i1 = static_cast<i32>(std::lround(src));
            }
            out_taps[static_cast<size_t>(i)] = {
                static_cast<size_t>(std::clamp(i0, 0, limit - 1)),
                static_cast<size_t>(std::clamp(i1, 0, limit - 1)), a};
        }
        return out_taps;
    };
    const std::vector<Tap> cols = taps(w, sx, width_);
    const std::vector<Tap> rows = taps(h, sy, height_);

    for (i32 y = 0; y < h; ++y) {
        const Tap &ty = rows[static_cast<size_t>(y)];
        const u8 *r0 = row(static_cast<i32>(ty.i0));
        const u8 *r1 = row(static_cast<i32>(ty.i1));
        const double ay = ty.a;
        u8 *dst = out.row(y);
        for (const Tap &tx : cols) {
            const size_t c0 = tx.i0 * ch;
            const size_t c1 = tx.i1 * ch;
            const double ax = tx.a;
            for (size_t c = 0; c < ch; ++c) {
                double v;
                if (bilinear_filter) {
                    // Image::bilinear's expression, term for term.
                    const double v00 = r0[c0 + c];
                    const double v10 = r0[c1 + c];
                    const double v01 = r1[c0 + c];
                    const double v11 = r1[c1 + c];
                    v = v00 * (1 - ax) * (1 - ay) + v10 * ax * (1 - ay) +
                        v01 * (1 - ax) * ay + v11 * ax * ay;
                } else {
                    v = r0[c0 + c];
                }
                *dst++ = clampToU8(v);
            }
        }
    }
    return out;
}

Image
Image::toGray() const
{
    if (channels_ == 1) {
        Image out = *this;
        return out;
    }
    Image out(width_, height_, PixelFormat::Gray8);
    for (i32 y = 0; y < height_; ++y) {
        const u8 *src = row(y);
        u8 *dst = out.row(y);
        for (i32 x = 0; x < width_; ++x) {
            const double r = src[3 * x + 0];
            const double g = src[3 * x + 1];
            const double b = src[3 * x + 2];
            dst[x] = clampToU8(0.299 * r + 0.587 * g + 0.114 * b);
        }
    }
    return out;
}

} // namespace rpx
