/**
 * @file
 * The reference rhythmic encode: the per-pixel span loop the encoder ran
 * before it planned frames. Each row is shortlisted, split at region
 * edges into spans with a constant covering set, and every pixel of a
 * strided span is checked against the span's stride grids one region at
 * a time, charging comparisons and attribution as it goes. It spells out
 * the §4.1 semantics and work model one pixel at a time and is the
 * differential oracle the planned encoder (serial, banded, summarised)
 * is tested against.
 */

#ifndef RPX_TESTS_CORE_REFERENCE_ENCODE_HPP
#define RPX_TESTS_CORE_REFERENCE_ENCODE_HPP

#include <vector>

#include "core/encoder.hpp"

namespace rpx {

/** One frame as the reference encoder produces and accounts it. */
struct ReferenceEncode {
    EncodedFrame frame;
    /** Work counters of this frame alone (frames == 1). */
    EncoderStats stats;
    /** Per-region work; empty unless attribution was requested. */
    RegionAttribution attr;
};

/**
 * Encode `gray` at frame `t` under `regions` (y-sorted) with the
 * per-pixel reference loop and the work model of `config`.
 */
ReferenceEncode referenceEncode(const std::vector<RegionLabel> &regions,
                                const RhythmicEncoder::Config &config,
                                const Image &gray, FrameIndex t,
                                bool attribute);

} // namespace rpx

#endif // RPX_TESTS_CORE_REFERENCE_ENCODE_HPP
