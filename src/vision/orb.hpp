/**
 * @file
 * ORB-like oriented multi-scale features with rotated-BRIEF descriptors.
 *
 * Each feature carries the attributes the paper's region policy consumes
 * (§3.4, §4.3): position, "size" (neighbourhood diameter in base-image
 * pixels, from the detection scale) and "octave" (pyramid level), matching
 * the OpenCV KeyPoint fields the paper references.
 */

#ifndef RPX_VISION_ORB_HPP
#define RPX_VISION_ORB_HPP

#include <array>
#include <vector>

#include "frame/image.hpp"
#include "vision/pyramid.hpp"

namespace rpx {

/** 256-bit binary descriptor. */
using Descriptor = std::array<u8, 32>;

// A vector<Descriptor>'s data() is then a packed pool of 32-byte rows, the
// layout simd::hammingRow256 scans.
static_assert(sizeof(Descriptor) == 32);

/** An oriented multi-scale feature. */
struct OrbFeature {
    double x = 0.0;      //!< base-image column
    double y = 0.0;      //!< base-image row
    float size = 0.0f;   //!< neighbourhood diameter in base-image pixels
    float angle = 0.0f;  //!< orientation in radians
    float response = 0.0f;
    int octave = 0;      //!< pyramid level the feature was detected at
    Descriptor descriptor{};
};

/** ORB detection options. */
struct OrbOptions {
    int max_features = 500;
    int fast_threshold = 20;
    PyramidOptions pyramid;
    /**
     * Sets the orientation disk's radius (patch_radius / 2) and
     * OrbFeature::size (2 * patch_radius, in level pixels). The rotated
     * BRIEF pattern does not scale with it: its points lie within +-11 of
     * the feature before rotation.
     */
    int patch_radius = 12;
};

/**
 * Detect ORB features on a grayscale image.
 *
 * Features are detected per pyramid level with FAST, scored, retained
 * best-first up to max_features (distributed across levels by score), then
 * oriented by intensity centroid and described with rotated BRIEF on the
 * blurred level image.
 */
std::vector<OrbFeature> detectOrb(const Image &gray,
                                  const OrbOptions &options);

std::vector<OrbFeature> detectOrb(const Image &gray);

/** Hamming distance between two descriptors (0..256). */
int hammingDistance(const Descriptor &a, const Descriptor &b);

} // namespace rpx

#endif // RPX_VISION_ORB_HPP
