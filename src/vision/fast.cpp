#include "vision/fast.hpp"

#include <cstddef>
#include <cstdlib>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace rpx {

namespace {

/**
 * 3x3 non-maximum suppression over a row-major corner list of an image
 * `w` pixels wide. A corner survives when no neighbour has a higher
 * score, nor an equal score earlier in row-major order. Scores of the
 * rows y - 1, y and y + 1 sit in a ring of three zeroed row buffers;
 * every corner scores at least 1, so an empty cell never suppresses.
 */
std::vector<Corner>
suppressNonMax(const std::vector<Corner> &raw, i32 w)
{
    const size_t pitch = static_cast<size_t>(w) + 2;
    std::vector<float> rows(3 * pitch, 0.0f);
    // Which row each ring slot holds, and that row's span of `raw`.
    struct Slot {
        i32 y = -1;
        size_t begin = 0, end = 0;
    } slots[3];
    const auto slot_row = [&](i32 y) {
        return rows.data() + static_cast<size_t>(y % 3) * pitch + 1;
    };
    const auto load = [&](i32 y, size_t begin, size_t end) {
        Slot &slot = slots[y % 3];
        if (slot.y == y)
            return;
        float *row = slot_row(y);
        for (size_t i = slot.begin; i < slot.end; ++i)
            row[raw[i].x] = 0.0f;
        for (size_t i = begin; i < end; ++i)
            row[raw[i].x] = raw[i].score;
        slot = {y, begin, end};
    };

    std::vector<Corner> out;
    out.reserve(raw.size() / 2);
    const size_t n = raw.size();
    size_t prev_begin = 0, prev_end = 0;
    for (size_t begin = 0; begin < n;) {
        const i32 y = raw[begin].y;
        size_t end = begin;
        while (end < n && raw[end].y == y)
            ++end;
        size_t next_end = end;
        while (next_end < n && raw[next_end].y == y + 1)
            ++next_end;
        if (prev_end == begin && prev_begin < begin &&
            raw[prev_begin].y == y - 1)
            load(y - 1, prev_begin, prev_end);
        else
            load(y - 1, begin, begin);
        load(y, begin, end);
        load(y + 1, end, next_end);
        const float *up = slot_row(y - 1);
        const float *mid = slot_row(y);
        const float *down = slot_row(y + 1);
        for (size_t i = begin; i < end; ++i) {
            const Corner &c = raw[i];
            const float s = c.score;
            const i32 x = c.x;
            const bool is_max = (up[x - 1] < s) & (up[x] < s) &
                                (up[x + 1] < s) & (mid[x - 1] < s) &
                                (mid[x + 1] <= s) & (down[x - 1] <= s) &
                                (down[x] <= s) & (down[x + 1] <= s);
            if (is_max)
                out.push_back(c);
        }
        prev_begin = begin;
        prev_end = end;
        begin = end;
    }
    return out;
}

} // namespace

std::vector<Corner>
detectFast(const Image &gray, const FastOptions &options)
{
    if (gray.channels() != 1)
        throwInvalid("detectFast expects a grayscale image");
    if (options.threshold < 1)
        throwInvalid("FAST threshold must be >= 1");
    if (options.arc_length < 1 || options.arc_length > 16)
        throwInvalid("FAST arc length must be in [1, 16]");

    const i32 w = gray.width();
    const i32 h = gray.height();
    std::vector<Corner> raw;
    if (w <= 6 || h <= 6)
        return raw;
    std::ptrdiff_t ring[16];
    for (int i = 0; i < 16; ++i)
        ring[i] = static_cast<std::ptrdiff_t>(simd::kFastRing[i][1]) * w +
                  simd::kFastRing[i][0];

    std::vector<u32> cols(static_cast<size_t>(w));
    for (i32 y = 3; y < h - 3; ++y) {
        const u8 *row = gray.row(y);
        const u32 hits = simd::fastRow(
            row, static_cast<size_t>(w), 3, static_cast<u32>(w - 3),
            options.threshold, options.arc_length, cols.data());
        for (u32 k = 0; k < hits; ++k) {
            const u8 *p = row + cols[k];
            // Score: sum of absolute ring differences. Every partial sum
            // is an integer below 2^24, so summing in int and converting
            // once gives the float the ring-order float sum gives.
            int score = 0;
            for (int i = 0; i < 16; ++i)
                score += std::abs(p[ring[i]] - *p);
            raw.push_back({static_cast<i32>(cols[k]), y,
                           static_cast<float>(score)});
        }
    }
    if (!options.nonmax || raw.empty())
        return raw;
    return suppressNonMax(raw, w);
}

std::vector<Corner>
detectFast(const Image &gray)
{
    return detectFast(gray, FastOptions{});
}

} // namespace rpx
