/**
 * @file
 * Test oracles for the ORB front end: the per-pixel FAST segment test,
 * the clamped box blur, and the intensity-centroid orientation and
 * rotated-BRIEF descriptor as first written (double moments, `lround`
 * and clamped reads everywhere), plus a reference `detectOrb` assembled
 * from them. Slow and plain on purpose; the library versions must match
 * them bit for bit.
 */

#ifndef RPX_TESTS_VISION_REFERENCE_ORB_HPP
#define RPX_TESTS_VISION_REFERENCE_ORB_HPP

#include <vector>

#include "vision/fast.hpp"
#include "vision/orb.hpp"

namespace rpx {

/**
 * FAST oracle: bounds-checked reads, a plain circular run count, no
 * compass-point quick reject, and a quadratic 3x3 non-maximum
 * suppression over the raw list.
 */
std::vector<Corner> oracleFast(const Image &img, const FastOptions &options);

/** Box-blur oracle: both passes through the clamped accessor. */
Image oracleBoxBlur3(const Image &gray);

/** Intensity-centroid orientation, double moments over clamped reads. */
float oracleOrientation(const Image &img, i32 x, i32 y, int radius);

/** Rotated BRIEF with `lround` offsets and clamped reads. */
Descriptor oracleDescribe(const Image &blurred, i32 x, i32 y, float angle);

/** detectOrb assembled from the oracles above (same pyramid and ranking). */
std::vector<OrbFeature> referenceDetectOrb(const Image &gray,
                                           const OrbOptions &options);

} // namespace rpx

#endif // RPX_TESTS_VISION_REFERENCE_ORB_HPP
