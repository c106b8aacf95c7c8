/**
 * @file
 * The reference software decode: the per-pixel findPixelSource walk
 * over the current frame, then over history, with the same fill and
 * black tallies SoftwareDecoder reports. It spells out the §4.2.2
 * reconstruction semantics one pixel at a time and is the differential
 * oracle both shipped decoders, which resolve through the row-carried
 * SourceCarry sweep, are tested against.
 */

#ifndef RPX_TESTS_CORE_REFERENCE_DECODE_HPP
#define RPX_TESTS_CORE_REFERENCE_DECODE_HPP

#include <optional>
#include <vector>

#include "core/encoded_frame.hpp"
#include "core/sw_decoder.hpp"
#include "frame/image.hpp"

namespace rpx {

/** Location of the R pixel that sources a reconstructed pixel value. */
struct PixelSource {
    i32 x = 0;          //!< column of the source R pixel
    i32 y = 0;          //!< row of the source R pixel
    u32 offset = 0;     //!< index into the encoded pixel payload
};

/**
 * Per-frame mask prefix queries: "number of R codes before column x in
 * row y" and "nearest R at or before column x", from a per-row
 * prefix-count array built on first touch.
 */
class MaskPrefixCache
{
  public:
    explicit MaskPrefixCache(const EncodedFrame &frame)
        : frame_(&frame), rows_(static_cast<size_t>(frame.height))
    {
    }

    const EncodedFrame &frame() const { return *frame_; }

    /** Number of R codes in row y strictly before column x. */
    u32 encodedBefore(i32 x, i32 y);

    /** Column of the nearest R at or before x in row y; -1 when none. */
    i32 lastEncodedAtOrBefore(i32 x, i32 y);

  private:
    const std::vector<u32> &rowPrefix(i32 y);

    const EncodedFrame *frame_;
    /** Per-row R prefix; an empty inner vector marks a row not yet built. */
    std::vector<std::vector<u32>> rows_;
};

/**
 * Resolve the source R pixel for a regional pixel (x, y) of `frame`.
 *
 * Implements the reconstruction semantics of §4.2.2 with a resampling
 * buffer: an R pixel sources itself; an St pixel sources the nearest R at
 * or to the left in the nearest row at or above it (searched up to
 * `max_upscan` rows). For stride-s regions this yields exact s x s
 * nearest-neighbour block replication. Returns nullopt when no source
 * exists within the scan bound (the caller falls back to history or black).
 */
std::optional<PixelSource> findPixelSource(MaskPrefixCache &cache, i32 x,
                                           i32 y, int max_upscan = 64);

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

/**
 * The history a tryDecode of `current` decodes over: the frames that are
 * non-null, match its geometry and pass validate(). The others are
 * counted into `skipped` when it is given.
 */
std::vector<const EncodedFrame *>
usableHistory(const EncodedFrame &current,
              const std::vector<const EncodedFrame *> &history,
              size_t *skipped = nullptr);

} // namespace rpx

#endif // RPX_TESTS_CORE_REFERENCE_DECODE_HPP
