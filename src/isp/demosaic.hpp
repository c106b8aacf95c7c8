/**
 * @file
 * Bilinear demosaic stage: reconstructs RGB from an RGGB Bayer mosaic, the
 * first stage of the Xilinx reVISION ISP the paper builds on.
 */

#ifndef RPX_ISP_DEMOSAIC_HPP
#define RPX_ISP_DEMOSAIC_HPP

#include "frame/image.hpp"

namespace rpx {

/**
 * Bilinear demosaic of an RGGB frame into an RGB image.
 *
 * Missing colour samples at each site are interpolated from the nearest
 * neighbours of the matching colour plane, with border clamping.
 */
Image demosaicBilinear(const Image &bayer);

/**
 * demosaicBilinear into a caller-owned image (re-shaped to the frame
 * geometry, reusing its allocation). Interior pixels run
 * demosaicInterior, border pixels demosaicSite.
 */
void demosaicBilinearInto(const Image &bayer, Image &rgb);

/**
 * Bilinear RGB of one site, bounds-checked: each missing colour is the
 * truncating average of the same-colour sites in its 3x3 window. The
 * border path of demosaicBilinearInto and of the kept-pixel ISP.
 */
void demosaicSite(const Image &bayer, i32 x, i32 y, u8 *rgb);

/**
 * Bilinear RGB of an interior site (1 <= x < w - 1, with rows above and
 * below): the neighbour sets of the four RGGB site phases resolved at
 * compile time. rm/r0/rp point at rows y - 1, y, y + 1. Bit-identical to
 * demosaicSite there.
 */
inline void
demosaicInterior(const u8 *rm, const u8 *r0, const u8 *rp, i32 x,
                 bool odd_row, u8 *rgb)
{
    const bool odd_col = (x & 1) != 0;
    if (odd_row == odd_col) {
        // R site (even row, even column) or B site (odd, odd): G on the
        // 4-cross, the other chroma on the 4 diagonals.
        const u8 cross = static_cast<u8>(
            (r0[x - 1] + r0[x + 1] + rm[x] + rp[x]) / 4);
        const u8 diag = static_cast<u8>(
            (rm[x - 1] + rm[x + 1] + rp[x - 1] + rp[x + 1]) / 4);
        rgb[0] = odd_row ? diag : r0[x];
        rgb[1] = cross;
        rgb[2] = odd_row ? r0[x] : diag;
        return;
    }
    // G site: the row's chroma left/right, the other chroma above/below.
    const u8 horiz = static_cast<u8>((r0[x - 1] + r0[x + 1]) / 2);
    const u8 vert = static_cast<u8>((rm[x] + rp[x]) / 2);
    rgb[0] = odd_row ? vert : horiz;
    rgb[1] = r0[x];
    rgb[2] = odd_row ? horiz : vert;
}

} // namespace rpx

#endif // RPX_ISP_DEMOSAIC_HPP
