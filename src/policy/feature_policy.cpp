#include "policy/feature_policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace rpx {

FeaturePolicy::FeaturePolicy(i32 frame_w, i32 frame_h,
                             const FeaturePolicyConfig &config)
    : frame_w_(frame_w), frame_h_(frame_h), config_(config)
{
    if (frame_w <= 0 || frame_h <= 0)
        throwInvalid("feature policy frame geometry must be positive");
    if (config.size_margin < 1.0)
        throwInvalid("size margin must be >= 1.0");
}

void
FeaturePolicy::observe(const std::vector<OrbFeature> &features)
{
    displacement_.assign(features.size(), -1.0); // unknown
    std::vector<Descriptor> descriptors = descriptorsOf(features);
    if (!current_.empty() && !features.empty()) {
        // current_ still holds the previous observation here.
        const auto matches =
            matchDescriptors(descriptors, current_descriptors_);
        for (const auto &m : matches) {
            const auto &cur = features[m.query_index];
            const auto &prev = current_[m.train_index];
            const double dx = cur.x - prev.x;
            const double dy = cur.y - prev.y;
            displacement_[m.query_index] = std::sqrt(dx * dx + dy * dy);
        }
    }
    current_ = features;
    current_descriptors_ = std::move(descriptors);
}

int
FeaturePolicy::strideFor(const OrbFeature &feature) const
{
    // Octave 0 (finest texture) keeps full resolution; coarser octaves
    // tolerate proportionally coarser sampling (§4.3).
    return std::clamp(feature.octave + 1, 1, config_.max_stride);
}

int
FeaturePolicy::skipFor(double displacement) const
{
    if (displacement < 0.0)
        return 1; // unknown motion: be conservative, sample every frame
    if (displacement >= config_.fast_motion_px)
        return 1;
    if (displacement <= config_.slow_motion_px)
        return config_.max_skip;
    // Linear in between.
    const double t = (config_.fast_motion_px - displacement) /
                     (config_.fast_motion_px - config_.slow_motion_px);
    return std::clamp(1 + static_cast<int>(t * (config_.max_skip - 1) + 0.5),
                      1, config_.max_skip);
}

std::vector<RegionLabel>
FeaturePolicy::regionsForNextFrame() const
{
    std::vector<RegionLabel> regions;
    regions.reserve(current_.size());
    for (size_t i = 0; i < current_.size(); ++i) {
        const auto &f = current_[i];
        const double side_d = std::clamp<double>(
            f.size * config_.size_margin, config_.min_region,
            config_.max_region);
        const i32 side = static_cast<i32>(side_d);
        RegionLabel r;
        r.x = static_cast<i32>(f.x) - side / 2;
        r.y = static_cast<i32>(f.y) - side / 2;
        r.w = side;
        r.h = side;
        r.stride = strideFor(f);
        r.skip = skipFor(displacement_[i]);
        const Rect clipped = r.rect().clippedTo(frame_w_, frame_h_);
        if (clipped.empty())
            continue;
        r.x = clipped.x;
        r.y = clipped.y;
        r.w = clipped.w;
        r.h = clipped.h;
        regions.push_back(r);
        if (regions.size() >= config_.max_regions)
            break;
    }
    sortRegionsByY(regions);
    return regions;
}

} // namespace rpx
