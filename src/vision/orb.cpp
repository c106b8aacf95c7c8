#include "vision/orb.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "vision/fast.hpp"

namespace rpx {

namespace {

/**
 * BRIEF sampling pattern: 256 point pairs, each coordinate in [-11, 11].
 * Pair b is points 2b and 2b + 1, stored as doubles so rotation multiplies
 * the same doubles the i8 pattern converts to.
 */
struct BriefPattern {
    alignas(16) double x[512];
    alignas(16) double y[512];
};

/** Deterministic pattern, generated once (gaussian-ish, clipped). */
const BriefPattern &
briefPattern()
{
    static const BriefPattern pattern = [] {
        BriefPattern p;
        Rng rng(0x5eedb41f);
        const double sigma = 5.0;
        for (size_t i = 0; i < 512; ++i) {
            for (double *coord : {&p.x[i], &p.y[i]}) {
                const double v = rng.gaussian(0.0, sigma);
                *coord = static_cast<i8>(std::clamp(v, -11.0, 11.0));
            }
        }
        return p;
    }();
    return pattern;
}

/**
 * std::lround for |v| < 2^30: round half away from zero. 2v is exact, and
 * for v >= 0, floor(v + 1/2) = (floor(2v) + 1) / 2 in integers; negative
 * v mirrors. Only i32 arithmetic follows the one truncating conversion,
 * so a loop of these vectorises.
 */
inline i32
roundHalfAway(double v)
{
    const i32 q = static_cast<i32>(2.0 * v);
    const i32 r = ((q < 0 ? -q : q) + 1) >> 1;
    return q < 0 ? -r : r;
}

/**
 * Intensity-centroid orientation over a circular patch. The moments are
 * integers far below 2^53, so summing them in i64 and converting once
 * gives the doubles a double-accumulating sum gives.
 */
float
orientation(const Image &img, i32 x, i32 y, int radius)
{
    const bool inside = x - radius >= 0 && x + radius < img.width() &&
                        y - radius >= 0 && y + radius < img.height();
    i64 m01 = 0, m10 = 0;
    for (i32 dy = -radius; dy <= radius; ++dy) {
        // Half-width of the disk's row dy.
        i32 half = 0;
        while ((half + 1) * (half + 1) + dy * dy <= radius * radius)
            ++half;
        i64 sum = 0, weighted = 0;
        if (inside) {
            const u8 *p = img.row(y + dy) + x;
            for (i32 dx = -half; dx <= half; ++dx) {
                sum += p[dx];
                weighted += dx * p[dx];
            }
        } else {
            for (i32 dx = -half; dx <= half; ++dx) {
                const i32 v = img.atClamped(x + dx, y + dy);
                sum += v;
                weighted += dx * v;
            }
        }
        m10 += weighted;
        m01 += dy * sum;
    }
    return static_cast<float>(
        std::atan2(static_cast<double>(m01), static_cast<double>(m10)));
}

/**
 * Rotated BRIEF: rotates all 512 pattern points by `angle` in one pass,
 * then compares the point pairs, through row pointers when every rotated
 * point lies inside the image and through clamped reads otherwise.
 */
Descriptor
describe(const Image &blurred, i32 x, i32 y, float angle)
{
    const BriefPattern &pattern = briefPattern();
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    alignas(16) i32 dx[512], dy[512];
    for (size_t i = 0; i < 512; ++i) {
        dx[i] = roundHalfAway(c * pattern.x[i] - s * pattern.y[i]);
        dy[i] = roundHalfAway(s * pattern.x[i] + c * pattern.y[i]);
    }
    i32 lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;
    for (size_t i = 0; i < 512; ++i) {
        lo_x = std::min(lo_x, dx[i]);
        hi_x = std::max(hi_x, dx[i]);
        lo_y = std::min(lo_y, dy[i]);
        hi_y = std::max(hi_y, dy[i]);
    }
    const i32 w = blurred.width();
    Descriptor desc{};
    if (x + lo_x >= 0 && x + hi_x < w && y + lo_y >= 0 &&
        y + hi_y < blurred.height()) {
        const u8 *centre = blurred.row(y) + x;
        for (size_t byte = 0; byte < 32; ++byte) {
            u32 bits = 0;
            for (size_t k = 0; k < 8; ++k) {
                const size_t i = 16 * byte + 2 * k;
                const u8 a = centre[static_cast<std::ptrdiff_t>(dy[i]) * w +
                                    dx[i]];
                const u8 b =
                    centre[static_cast<std::ptrdiff_t>(dy[i + 1]) * w +
                           dx[i + 1]];
                bits |= static_cast<u32>(a < b) << k;
            }
            desc[byte] = static_cast<u8>(bits);
        }
        return desc;
    }
    for (size_t bit = 0; bit < 256; ++bit) {
        const size_t i = 2 * bit;
        if (blurred.atClamped(x + dx[i], y + dy[i]) <
            blurred.atClamped(x + dx[i + 1], y + dy[i + 1]))
            desc[bit >> 3] |= static_cast<u8>(1u << (bit & 7));
    }
    return desc;
}

} // namespace

std::vector<OrbFeature>
detectOrb(const Image &gray, const OrbOptions &options)
{
    if (gray.channels() != 1)
        throwInvalid("detectOrb expects a grayscale image");
    if (options.max_features < 1)
        throwInvalid("max_features must be positive");

    ImagePyramid pyramid(gray, options.pyramid);

    struct Candidate {
        Corner corner;
        size_t level;
    };
    std::vector<Candidate> candidates;
    for (size_t lvl = 0; lvl < pyramid.levels(); ++lvl) {
        FastOptions fo;
        fo.threshold = options.fast_threshold;
        const auto corners = detectFast(pyramid.level(lvl).image, fo);
        for (const auto &c : corners)
            candidates.push_back({c, lvl});
    }

    // Keep the strongest candidates overall.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.corner.score > b.corner.score;
              });
    if (candidates.size() > static_cast<size_t>(options.max_features))
        candidates.resize(static_cast<size_t>(options.max_features));

    // Blur each level once for descriptor stability.
    std::vector<Image> blurred;
    blurred.reserve(pyramid.levels());
    for (size_t lvl = 0; lvl < pyramid.levels(); ++lvl)
        blurred.push_back(boxBlur3(pyramid.level(lvl).image));

    std::vector<OrbFeature> features;
    features.reserve(candidates.size());
    for (const auto &cand : candidates) {
        const auto &lvl = pyramid.level(cand.level);
        OrbFeature f;
        f.x = cand.corner.x * lvl.scale;
        f.y = cand.corner.y * lvl.scale;
        f.octave = static_cast<int>(cand.level);
        f.size = static_cast<float>(2.0 * options.patch_radius * lvl.scale);
        f.response = cand.corner.score;
        f.angle = orientation(blurred[cand.level], cand.corner.x,
                              cand.corner.y, options.patch_radius / 2);
        f.descriptor = describe(blurred[cand.level], cand.corner.x,
                                cand.corner.y, f.angle);
        features.push_back(f);
    }
    return features;
}

std::vector<OrbFeature>
detectOrb(const Image &gray)
{
    return detectOrb(gray, OrbOptions{});
}

int
hammingDistance(const Descriptor &a, const Descriptor &b)
{
    u16 dist = 0;
    simd::hammingRow256(a.data(), b.data(), 1, &dist);
    return dist;
}

} // namespace rpx
