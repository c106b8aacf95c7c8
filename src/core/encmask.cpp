#include "core/encmask.hpp"

#include <algorithm>
#include <array>

#include "common/simd.hpp"

namespace rpx {

const char *
pixelCodeName(PixelCode code)
{
    switch (code) {
      case PixelCode::N:
        return "N";
      case PixelCode::St:
        return "St";
      case PixelCode::Sk:
        return "Sk";
      case PixelCode::R:
        return "R";
    }
    return "?";
}

EncMask::EncMask(i32 w, i32 h) : width_(w), height_(h)
{
    if (w < 0 || h < 0)
        throwInvalid("EncMask dimensions must be non-negative");
    const size_t bits = static_cast<size_t>(w) * static_cast<size_t>(h) * 2;
    bits_.assign((bits + 7) / 8, 0);
}

EncMask::EncMask(i32 w, i32 h, std::vector<u8> packed)
    : width_(w), height_(h), bits_(std::move(packed))
{
    if (w < 0 || h < 0)
        throwInvalid("EncMask dimensions must be non-negative");
    const size_t bits = static_cast<size_t>(w) * static_cast<size_t>(h) * 2;
    if (bits_.size() != (bits + 7) / 8)
        throwInvalid("packed EncMask size mismatch: got ", bits_.size(),
                     " bytes for ", w, "x", h);
}

void
EncMask::assign(i32 w, i32 h, const u8 *data, size_t len)
{
    if (w < 0 || h < 0)
        throwInvalid("EncMask dimensions must be non-negative");
    const size_t bits = static_cast<size_t>(w) * static_cast<size_t>(h) * 2;
    if (len != (bits + 7) / 8)
        throwInvalid("packed EncMask size mismatch: got ", len,
                     " bytes for ", w, "x", h);
    width_ = w;
    height_ = h;
    bits_.assign(data, data + len);
}

u32
EncMask::encodedBefore(i32 x, i32 y) const
{
    RPX_ASSERT(x >= 0 && x <= width_ && y >= 0 && y < height_,
               "EncMask::encodedBefore out of bounds");
    const size_t first =
        static_cast<size_t>(y) * static_cast<size_t>(width_);
    return simd::countR2bpp(bits_.data(), first, static_cast<size_t>(x));
}

u32
EncMask::encodedInRow(i32 y) const
{
    return encodedBefore(width_, y);
}

std::array<u64, 4>
EncMask::histogram() const
{
    std::array<u64, 4> h{};
    for (i32 y = 0; y < height_; ++y)
        for (i32 x = 0; x < width_; ++x)
            ++h[static_cast<size_t>(at(x, y))];
    return h;
}

std::string
maskToAscii(const EncMask &mask, i32 cell)
{
    if (cell < 1)
        throwInvalid("ascii cell size must be positive");
    std::string out;
    for (i32 by = 0; by < mask.height(); by += cell) {
        for (i32 bx = 0; bx < mask.width(); bx += cell) {
            std::array<u32, 4> counts{};
            for (i32 y = by; y < std::min(mask.height(), by + cell); ++y)
                for (i32 x = bx; x < std::min(mask.width(), bx + cell);
                     ++x)
                    ++counts[static_cast<size_t>(mask.at(x, y))];
            size_t best = 0;
            for (size_t c = 1; c < 4; ++c)
                if (counts[c] > counts[best])
                    best = c;
            constexpr char glyphs[4] = {'.', ':', 's', '#'};
            out += glyphs[best];
        }
        out += '\n';
    }
    return out;
}

RowOffsets::RowOffsets(const EncMask &mask)
{
    offsets_.resize(static_cast<size_t>(mask.height()) + 1, 0);
    u32 running = 0;
    for (i32 y = 0; y < mask.height(); ++y) {
        offsets_[static_cast<size_t>(y)] = running;
        running += mask.encodedInRow(y);
    }
    offsets_.back() = running;
}

RowOffsets::RowOffsets(i32 height)
{
    RPX_ASSERT(height >= 0, "RowOffsets height must be non-negative");
    offsets_.assign(static_cast<size_t>(height) + 1, 0);
}

void
RowOffsets::reset(i32 height)
{
    RPX_ASSERT(height >= 0, "RowOffsets height must be non-negative");
    offsets_.assign(static_cast<size_t>(height) + 1, 0);
}

void
RowOffsets::setRowCount(i32 y, u32 count)
{
    RPX_ASSERT(y >= 0 && static_cast<size_t>(y) + 1 < offsets_.size(),
               "RowOffsets::setRowCount out of bounds");
    // Rows must be filled in raster order for the prefix sum to hold.
    offsets_[static_cast<size_t>(y) + 1] =
        offsets_[static_cast<size_t>(y)] + count;
}

} // namespace rpx
