/**
 * @file
 * Feature-based region selection policy (§3.4, §4.3).
 *
 * Converts the visual features the app just processed into region labels
 * for the next frame: the feature's "size" attribute guides the region
 * width/height (with margin for frame-to-frame displacement), the "octave"
 * attribute guides the stride, and the measured displacement of matched
 * features guides the temporal skip rate.
 */

#ifndef RPX_POLICY_FEATURE_POLICY_HPP
#define RPX_POLICY_FEATURE_POLICY_HPP

#include <vector>

#include "core/region.hpp"
#include "vision/matcher.hpp"
#include "vision/orb.hpp"

namespace rpx {

/** Feature policy tuning. */
struct FeaturePolicyConfig {
    double size_margin = 1.6;   //!< region side = margin * feature size
    i32 min_region = 24;        //!< minimum region side in pixels
    i32 max_region = 256;       //!< maximum region side in pixels
    int max_stride = 4;         //!< octave-derived stride cap
    int max_skip = 3;           //!< skip cap (paper: 100 ms at 30 fps)
    double fast_motion_px = 6.0;  //!< displacement/frame => skip 1
    double slow_motion_px = 1.5;  //!< displacement/frame => max skip
    size_t max_regions = 1200;  //!< hardware region-table capacity guard
};

/**
 * Stateful feature-to-region policy. Feed it the features of each processed
 * frame; ask it for the next frame's labels.
 */
class FeaturePolicy
{
  public:
    FeaturePolicy(i32 frame_w, i32 frame_h,
                  const FeaturePolicyConfig &config);
    FeaturePolicy(i32 frame_w, i32 frame_h)
        : FeaturePolicy(frame_w, frame_h, FeaturePolicyConfig{})
    {
    }

    const FeaturePolicyConfig &config() const { return config_; }

    /**
     * Observe the features extracted from the frame just processed.
     * Displacements are estimated by descriptor-matching against the
     * previous observation.
     */
    void observe(const std::vector<OrbFeature> &features);

    /** Region labels for the next frame (clipped, y-sorted). */
    std::vector<RegionLabel> regionsForNextFrame() const;

    /** Stride derived from a feature's octave. */
    int strideFor(const OrbFeature &feature) const;

    /** Skip derived from a feature's estimated displacement (px/frame). */
    int skipFor(double displacement) const;

  private:
    i32 frame_w_;
    i32 frame_h_;
    FeaturePolicyConfig config_;
    std::vector<OrbFeature> current_; //!< the last observed features
    std::vector<Descriptor> current_descriptors_; //!< their descriptors
    std::vector<double> displacement_; //!< per current feature, px/frame
};

} // namespace rpx

#endif // RPX_POLICY_FEATURE_POLICY_HPP
