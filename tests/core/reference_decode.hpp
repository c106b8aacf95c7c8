/**
 * @file
 * The reference software decode: the per-pixel findPixelSource walk
 * over the current frame, then over history, with the same fill and
 * black tallies SoftwareDecoder reports. It spells out the §4.2.2
 * reconstruction semantics one pixel at a time and is the differential
 * oracle the shipped row-carried decoder is tested against.
 */

#ifndef RPX_TESTS_CORE_REFERENCE_DECODE_HPP
#define RPX_TESTS_CORE_REFERENCE_DECODE_HPP

#include <vector>

#include "core/encoded_frame.hpp"
#include "core/sw_decoder.hpp"
#include "frame/image.hpp"

namespace rpx {

/** What the reference walk produced for one frame. */
struct ReferenceDecode {
    Image image;
    u64 history_fills = 0; //!< pixels filled from a history frame
    u64 black = 0;         //!< pixels left at the black value
};

/**
 * Decode `current` (history most recent first) with the per-pixel walk.
 * Inputs must pass validate(); like the shipped decoder, every payload
 * index is range-checked, and an out-of-range source falls back to
 * history or black.
 */
ReferenceDecode
referenceDecode(const EncodedFrame &current,
                const std::vector<const EncodedFrame *> &history,
                const SoftwareDecoder::Config &config = {});

} // namespace rpx

#endif // RPX_TESTS_CORE_REFERENCE_DECODE_HPP
