#include "reference_orb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "common/rng.hpp"

namespace rpx {

namespace {

constexpr i32 kOracleRing[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
};

/** BRIEF sampling pattern: 256 point pairs inside the patch. */
struct BriefPattern {
    std::array<std::array<i8, 4>, 256> pairs; // x1, y1, x2, y2
};

/** Deterministic pattern, generated once (gaussian-ish, clipped). */
const BriefPattern &
briefPattern()
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
    return pattern;
}

} // namespace

std::vector<Corner>
oracleFast(const Image &img, const FastOptions &options)
{
    const int t = options.threshold;
    std::vector<Corner> raw;
    for (i32 y = 3; y < img.height() - 3; ++y) {
        for (i32 x = 3; x < img.width() - 3; ++x) {
            const int center = img.at(x, y);
            int ring[16];
            for (int i = 0; i < 16; ++i)
                ring[i] = img.at(x + kOracleRing[i][0],
                                 y + kOracleRing[i][1]);
            bool corner = false;
            for (const bool bright : {true, false}) {
                // Longest circular run: start at every ring position.
                for (int start = 0; start < 16 && !corner; ++start) {
                    int run = 0;
                    while (run < 16) {
                        const int v = ring[(start + run) % 16];
                        if (bright ? v < center + t : v > center - t)
                            break;
                        ++run;
                    }
                    corner = run >= options.arc_length;
                }
            }
            if (!corner)
                continue;
            float score = 0.0f;
            for (int i = 0; i < 16; ++i)
                score += static_cast<float>(std::abs(ring[i] - center));
            raw.push_back({x, y, score});
        }
    }
    if (!options.nonmax)
        return raw;
    // `raw` is in row-major order, so only the corners from row c.y - 1
    // on can be neighbours of c.
    std::vector<Corner> out;
    for (const Corner &c : raw) {
        bool is_max = true;
        const auto from = std::lower_bound(
            raw.begin(), raw.end(), c.y - 1,
            [](const Corner &o, i32 row) { return o.y < row; });
        for (auto it = from; it != raw.end() && it->y <= c.y + 1; ++it) {
            const Corner &o = *it;
            const i32 dx = o.x - c.x, dy = o.y - c.y;
            if ((dx == 0 && dy == 0) || std::abs(dx) > 1 || std::abs(dy) > 1)
                continue;
            if (o.score > c.score ||
                (o.score == c.score && (dy < 0 || (dy == 0 && dx < 0))))
                is_max = false;
        }
        if (is_max)
            out.push_back(c);
    }
    return out;
}

Image
oracleBoxBlur3(const Image &gray)
{
    Image tmp(gray.width(), gray.height(), PixelFormat::Gray8);
    Image out(gray.width(), gray.height(), PixelFormat::Gray8);
    for (i32 y = 0; y < gray.height(); ++y)
        for (i32 x = 0; x < gray.width(); ++x)
            tmp.set(x, y,
                    static_cast<u8>((gray.atClamped(x - 1, y) +
                                     gray.atClamped(x, y) +
                                     gray.atClamped(x + 1, y)) /
                                    3));
    for (i32 y = 0; y < gray.height(); ++y)
        for (i32 x = 0; x < gray.width(); ++x)
            out.set(x, y,
                    static_cast<u8>((tmp.atClamped(x, y - 1) +
                                     tmp.atClamped(x, y) +
                                     tmp.atClamped(x, y + 1)) /
                                    3));
    return out;
}

float
oracleOrientation(const Image &img, i32 x, i32 y, int radius)
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
oracleDescribe(const Image &blurred, i32 x, i32 y, float angle)
{
    const BriefPattern &pattern = briefPattern();
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

std::vector<OrbFeature>
referenceDetectOrb(const Image &gray, const OrbOptions &options)
{
    ImagePyramid pyramid(gray, options.pyramid);

    struct Candidate {
        Corner corner;
        size_t level;
    };
    std::vector<Candidate> candidates;
    for (size_t lvl = 0; lvl < pyramid.levels(); ++lvl) {
        FastOptions fo;
        fo.threshold = options.fast_threshold;
        for (const Corner &c : oracleFast(pyramid.level(lvl).image, fo))
            candidates.push_back({c, lvl});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.corner.score > b.corner.score;
              });
    if (candidates.size() > static_cast<size_t>(options.max_features))
        candidates.resize(static_cast<size_t>(options.max_features));

    std::vector<Image> blurred;
    for (size_t lvl = 0; lvl < pyramid.levels(); ++lvl)
        blurred.push_back(oracleBoxBlur3(pyramid.level(lvl).image));

    std::vector<OrbFeature> features;
    for (const Candidate &cand : candidates) {
        const PyramidLevel &lvl = pyramid.level(cand.level);
        OrbFeature f;
        f.x = cand.corner.x * lvl.scale;
        f.y = cand.corner.y * lvl.scale;
        f.octave = static_cast<int>(cand.level);
        f.size = static_cast<float>(2.0 * options.patch_radius * lvl.scale);
        f.response = cand.corner.score;
        f.angle = oracleOrientation(blurred[cand.level], cand.corner.x,
                                    cand.corner.y, options.patch_radius / 2);
        f.descriptor = oracleDescribe(blurred[cand.level], cand.corner.x,
                                      cand.corner.y, f.angle);
        features.push_back(f);
    }
    return features;
}

} // namespace rpx
