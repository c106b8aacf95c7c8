#include "vision/fast.hpp"

#include <cstddef>
#include <cstdlib>

#include "common/error.hpp"

namespace rpx {

namespace {

/** The 16 Bresenham-circle offsets (radius 3), clockwise from 12 o'clock. */
constexpr i32 kRing[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
};

/**
 * True when the 16-bit ring mask holds `arc` circularly contiguous bits.
 * AND-ing the doubled mask with its shifts leaves bit i set iff ring
 * positions i .. i + arc - 1 (mod 16) are all set.
 */
bool
hasArc(u32 mask, int arc)
{
    const u32 doubled = mask | (mask << 16);
    u32 run = doubled;
    for (int k = 1; k < arc && run != 0; ++k)
        run &= doubled >> k;
    return run != 0;
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
    const int t = options.threshold;
    const int arc = options.arc_length;
    // A contiguous arc of `arc` ring pixels covers at least arc / 4 of the
    // four compass points (0, 4, 8, 12), so fewer compass hits on both
    // sides rule the pixel out before the other 12 ring pixels are read.
    const int need = arc / 4;
    std::ptrdiff_t ring[16];
    for (int i = 0; i < 16; ++i)
        ring[i] = static_cast<std::ptrdiff_t>(kRing[i][1]) * w + kRing[i][0];

    std::vector<Corner> raw;
    for (i32 y = 3; y < h - 3; ++y) {
        const u8 *row = gray.row(y);
        for (i32 x = 3; x < w - 3; ++x) {
            const u8 *p = row + x;
            const int center = *p;
            const int hi = center + t;
            const int lo = center - t;
            int brighter4 = 0, darker4 = 0;
            for (int i = 0; i < 16; i += 4) {
                const int v = p[ring[i]];
                brighter4 += v >= hi;
                darker4 += v <= lo;
            }
            if (brighter4 < need && darker4 < need)
                continue;

            u32 bright = 0, dark = 0;
            for (int i = 0; i < 16; ++i) {
                const int v = p[ring[i]];
                bright |= static_cast<u32>(v >= hi) << i;
                dark |= static_cast<u32>(v <= lo) << i;
            }
            if (!hasArc(bright, arc) && !hasArc(dark, arc))
                continue;
            // Score: sum of absolute ring differences, in ring order.
            float score = 0.0f;
            for (int i = 0; i < 16; ++i)
                score += static_cast<float>(std::abs(p[ring[i]] - center));
            raw.push_back({x, y, score});
        }
    }
    if (!options.nonmax || raw.empty())
        return raw;

    // 3x3 non-maximum suppression on a sparse score map.
    std::vector<float> scores(static_cast<size_t>(w) * h, 0.0f);
    for (const auto &c : raw)
        scores[static_cast<size_t>(c.y) * w + c.x] = c.score;
    std::vector<Corner> out;
    out.reserve(raw.size() / 2);
    for (const auto &c : raw) {
        bool is_max = true;
        for (i32 dy = -1; dy <= 1 && is_max; ++dy) {
            for (i32 dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                const i32 nx = c.x + dx, ny = c.y + dy;
                if (nx < 0 || nx >= w || ny < 0 || ny >= h)
                    continue;
                const float other =
                    scores[static_cast<size_t>(ny) * w + nx];
                if (other > c.score ||
                    (other == c.score && (dy < 0 || (dy == 0 && dx < 0)))) {
                    is_max = false;
                    break;
                }
            }
        }
        if (is_max)
            out.push_back(c);
    }
    return out;
}

std::vector<Corner>
detectFast(const Image &gray)
{
    return detectFast(gray, FastOptions{});
}

} // namespace rpx
