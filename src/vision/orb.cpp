#include "vision/orb.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "vision/fast.hpp"

namespace rpx {

namespace {

/** BRIEF sampling pattern: 256 point pairs inside the patch. */
struct BriefPattern {
    std::array<std::array<i8, 4>, 256> pairs; // x1, y1, x2, y2
};

/** Deterministic pattern, generated once (gaussian-ish, clipped). */
const BriefPattern &
briefPattern(int radius)
{
    static const BriefPattern pattern = [] {
        BriefPattern p;
        Rng rng(0x5eedb41f);
        const double sigma = 5.0;
        for (auto &pair : p.pairs) {
            for (int k = 0; k < 4; ++k) {
                const double v = rng.gaussian(0.0, sigma);
                pair[static_cast<size_t>(k)] = static_cast<i8>(
                    std::clamp(v, -11.0, 11.0));
            }
        }
        return p;
    }();
    (void)radius;
    return pattern;
}

/** Intensity-centroid orientation over a circular patch. */
float
orientation(const Image &img, i32 x, i32 y, int radius)
{
    double m01 = 0.0, m10 = 0.0;
    for (i32 dy = -radius; dy <= radius; ++dy) {
        for (i32 dx = -radius; dx <= radius; ++dx) {
            if (dx * dx + dy * dy > radius * radius)
                continue;
            const double v = img.atClamped(x + dx, y + dy);
            m10 += dx * v;
            m01 += dy * v;
        }
    }
    return static_cast<float>(std::atan2(m01, m10));
}

Descriptor
describe(const Image &blurred, i32 x, i32 y, float angle, int radius)
{
    const BriefPattern &pattern = briefPattern(radius);
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    Descriptor desc{};
    for (size_t bit = 0; bit < 256; ++bit) {
        const auto &p = pattern.pairs[bit];
        const i32 x1 = x + static_cast<i32>(std::lround(c * p[0] - s * p[1]));
        const i32 y1 = y + static_cast<i32>(std::lround(s * p[0] + c * p[1]));
        const i32 x2 = x + static_cast<i32>(std::lround(c * p[2] - s * p[3]));
        const i32 y2 = y + static_cast<i32>(std::lround(s * p[2] + c * p[3]));
        if (blurred.atClamped(x1, y1) < blurred.atClamped(x2, y2))
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
                                cand.corner.y, f.angle,
                                options.patch_radius);
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
