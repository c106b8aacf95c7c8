/**
 * @file
 * Colour-space conversion stage (RGB -> YUV / gray), the format-change step
 * the paper's ISP performs before frames reach memory.
 */

#ifndef RPX_ISP_COLOR_HPP
#define RPX_ISP_COLOR_HPP

#include "frame/image.hpp"

namespace rpx {

/** Planar YUV result of a colour conversion (full-range BT.601). */
struct YuvImage {
    Image y;  //!< luma plane
    Image u;  //!< chroma U (Cb), same size (4:4:4)
    Image v;  //!< chroma V (Cr)
};

/** RGB -> full-range BT.601 YUV 4:4:4. */
YuvImage rgbToYuv(const Image &rgb);

/** YUV 4:4:4 -> RGB (inverse of rgbToYuv, up to rounding). */
Image yuvToRgb(const YuvImage &yuv);

/** RGB -> luma-only (same weights as Image::toGray, provided for symmetry). */
Image rgbToGray(const Image &rgb);

} // namespace rpx

#endif // RPX_ISP_COLOR_HPP
