/**
 * @file
 * The reference ISP: the staged dense chain the kept-pixel ISP fuses —
 * full-frame bilinear demosaic, gamma LUT over every channel, then the
 * BT.601 RGB -> gray conversion. The oracle the fused kernel
 * (IspPipeline::process and processKept) is tested against.
 */

#ifndef RPX_TESTS_ISP_REFERENCE_ISP_HPP
#define RPX_TESTS_ISP_REFERENCE_ISP_HPP

#include "frame/image.hpp"

namespace rpx {

/**
 * RGB -> gray into a caller-owned image (re-shaped, allocation reused).
 * Bit-identical to Image::toGray; a gray input is copied through.
 */
void rgbToGrayInto(const Image &rgb, Image &gray);

/** Dense demosaic -> gamma -> gray of a Bayer frame. */
Image denseIspGray(const Image &raw, double gamma);

} // namespace rpx

#endif // RPX_TESTS_ISP_REFERENCE_ISP_HPP
