/**
 * @file
 * The row-carried pixel-source sweep both decoders resolve through
 * (DESIGN.md §10): the §4.2.2 rule — an St pixel takes the nearest R at
 * or left of it in the nearest row at or above it, within max_upscan
 * rows — answered for every column of a row at once. The per-pixel
 * search that defines the rule is the test oracle in
 * tests/core/reference_decode.
 */

#ifndef RPX_CORE_SOURCE_CARRY_HPP
#define RPX_CORE_SOURCE_CARRY_HPP

#include <algorithm>
#include <vector>

#include "common/simd.hpp"
#include "core/encoded_frame.hpp"

namespace rpx {

/** Oldest row that may source a pixel of row y (the upscan bound). */
inline i32
minSourceRow(i32 y, int max_upscan)
{
    return static_cast<i32>(
        std::max<i64>(0, static_cast<i64>(y) - max_upscan));
}

/**
 * Rolling source carry over one frame. For each column x, offset[x] and
 * row[x] locate the nearest R at or left of x in the nearest row at or
 * above the last swept row (row[x] = -1 when there is none); codes holds
 * the last swept row's unpacked codes.
 */
struct SourceCarry {
    const EncodedFrame *frame = nullptr;
    i32 next_row = 0; //!< first row not yet swept
    std::vector<u8> codes;
    std::vector<u32> offset;
    std::vector<i32> row;

    /** Point at `f` and forget every source (keeps capacity). */
    void
    bind(const EncodedFrame &f)
    {
        frame = &f;
        next_row = 0;
        const size_t w = static_cast<size_t>(f.width);
        codes.resize(w);
        offset.resize(w);
        row.assign(w, -1);
    }

    /**
     * Sweep rows [max(next_row, from), y]. Rows skipped below `from` only
     * held sources that the caller's distance check rejects.
     */
    void
    advanceTo(i32 y, i32 from)
    {
        constexpr u8 kR = static_cast<u8>(PixelCode::R);
        const size_t w = codes.size();
        for (i32 r = std::max(next_row, from); r <= y; ++r) {
            simd::unpackMask2bpp(frame->mask.bytes().data(),
                                 static_cast<size_t>(r) * w, w,
                                 codes.data());
            // The R at column x is payload entry offsetOf(r) + (R codes
            // before x). Every column from the row's first R on now
            // sources from the latest R at or left of it; columns before
            // it keep the carry from the rows above.
            const u32 base = frame->offsets.offsetOf(r);
            size_t x = 0;
            while (x < w && codes[x] != kR)
                ++x;
            u32 seen = 0;
            for (; x < w; ++x) {
                seen += codes[x] == kR ? 1u : 0u;
                offset[x] = base + seen - 1;
                row[x] = r;
            }
        }
        next_row = std::max(next_row, y + 1);
    }
};

} // namespace rpx

#endif // RPX_CORE_SOURCE_CARRY_HPP
