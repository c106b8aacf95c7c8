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
#include <bit>
#include <cstring>
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
 * the source row locate the nearest R at or left of x in the nearest row
 * at or above the last swept row; codes holds the last swept row's
 * unpacked codes. A carry bound with values also holds value[x] =
 * pixels[offset[x]], the source byte itself.
 *
 * Rows are swept in increasing order, and a sweep of row r makes r the
 * source row of every column from the row's first R on, so the source
 * row never decreases along x. The carry keeps it as its steps: (x,
 * row) pairs, both strictly increasing, each giving the source row from
 * its x up to the next step (no source left of the first). A source row
 * is at least min_row exactly for x >= threshold(min_row).
 */
struct SourceCarry {
    /** From column x on, sources lie in row `row`. */
    struct Step {
        u32 x;
        i32 row;
    };

    const EncodedFrame *frame = nullptr;
    i32 next_row = 0; //!< first row not yet swept
    bool with_values = false;
    /**
     * Bytes of `frame` the sweeps since bind() read: each swept row's
     * mask bits and offset entry, and (with values) its R payload bytes.
     */
    u64 bytes_read = 0;
    /**
     * Some swept row's R codes reach past the payload end (a mask that
     * disagrees with its row offsets). Only then can a carried offset
     * fall outside the payload; value[] is 0 at such columns.
     */
    bool overrun = false;
    std::vector<u8> codes;
    std::vector<u32> offset;
    std::vector<u8> value;
    std::vector<Step> steps;

    /**
     * Point at `f` and forget every source (keeps capacity). With
     * `values`, sweeps also carry each column's source byte from
     * f.pixels.
     */
    void
    bind(const EncodedFrame &f, bool values)
    {
        frame = &f;
        next_row = 0;
        with_values = values;
        overrun = false;
        bytes_read = 0;
        const size_t w = static_cast<size_t>(f.width);
        codes.resize(w);
        offset.resize(w);
        if (values)
            value.resize(w);
        steps.clear();
        steps.reserve(w); // one step per column at most
    }

    /** First column whose source row is at least `min_row`, or width. */
    size_t
    threshold(i32 min_row) const
    {
        const auto it = std::partition_point(
            steps.begin(), steps.end(),
            [min_row](const Step &s) { return s.row < min_row; });
        return it == steps.end() ? codes.size() : it->x;
    }

    /**
     * Sweep rows [max(next_row, from), y]. Rows skipped below `from` only
     * held sources that the caller's distance check rejects.
     */
    void
    advanceTo(i32 y, i32 from)
    {
        const size_t w = codes.size();
        const u8 *packed = frame->mask.bytes().data();
        for (i32 r = std::max(next_row, from); r <= y; ++r) {
            const size_t start = static_cast<size_t>(r) * w;
            const u32 base = frame->offsets.offsetOf(r);
            bytes_read += rowMetadataBytes(r);
            const size_t first_r = firstR(start, w);
            // A row with no R changes no source; only the last row's
            // codes are ever read.
            if (r == y)
                simd::unpackMask2bpp(packed, start, w, codes.data());
            else if (first_r < w)
                simd::unpackMask2bpp(packed, start + first_r, w - first_r,
                                     codes.data() + first_r);
            if (first_r == w)
                continue;
            // Every column from the row's first R on now sources from the
            // latest R at or left of it, payload entry offsetOf(r) + (R
            // codes up to it) - 1; columns before it keep the carry from
            // the rows above.
            while (!steps.empty() && steps.back().x >= first_r)
                steps.pop_back();
            steps.push_back({static_cast<u32>(first_r), r});
            const size_t n = w - first_r;
            const size_t limit = frame->pixels.size();
            // Offsets only grow along a row, so one bound per row proves
            // every value read of it in range: offsetOf(r) plus the R
            // codes from first_r on (or, sufficient and cheaper, plus n)
            // must stay within the payload.
            const bool values_in_range =
                with_values &&
                (base + n <= limit ||
                 base + static_cast<size_t>(simd::countR2bpp(
                            packed, start + first_r, n)) <=
                     limit);
            simd::expandSources(codes.data() + first_r, n, base,
                                frame->pixels.data(), limit,
                                offset.data() + first_r,
                                values_in_range ? value.data() + first_r
                                                : nullptr);
            if (with_values && !values_in_range) {
                overrun = true;
                for (size_t x = first_r; x < w; ++x)
                    value[x] = offset[x] < limit ? frame->pixels[offset[x]]
                                                 : 0;
            }
            // The last column sources from the row's last R, so the row's
            // in-range payload ends at its offset + 1.
            if (with_values)
                bytes_read +=
                    std::min<u64>(u64{offset[w - 1]} + 1, limit) - base;
        }
        next_row = std::max(next_row, y + 1);
    }

    /**
     * Sweep row y, the next row, when every code in it is Sk: such a row
     * holds no R, so it changes no source and its codes need no unpacking.
     * Returns false, sweeping nothing, when any code of the row is N, St
     * or R (or, for a frame whose offsets disagree with its mask, when
     * the row's offsets give it payload).
     */
    bool
    sweepIfAllSkipped(i32 y)
    {
        if (next_row != y ||
            frame->offsets.offsetOf(y + 1) != frame->offsets.offsetOf(y))
            return false;
        constexpr u64 kSkWord = 0xAAAAAAAAAAAAAAAAULL; // Sk = 0b10 codes
        const std::vector<u8> &bytes = frame->mask.bytes();
        const size_t w = codes.size();
        size_t code = static_cast<size_t>(y) * w;
        const size_t end = code + w;
        const auto isSk = [&bytes](size_t c) {
            return ((bytes[c / 4] >> (2 * (c % 4))) & 0b11) == 0b10;
        };
        for (; code < end && code % 4 != 0; ++code)
            if (!isSk(code))
                return false;
        size_t b = code / 4;
        for (; b + 8 <= end / 4; b += 8) {
            u64 v;
            std::memcpy(&v, bytes.data() + b, sizeof(v));
            if (v != kSkWord)
                return false;
        }
        for (; b < end / 4; ++b)
            if (bytes[b] != 0xAA)
                return false;
        for (code = std::max(code, b * 4); code < end; ++code)
            if (!isSk(code))
                return false;
        bytes_read += rowMetadataBytes(y);
        next_row = y + 1;
        return true;
    }

  private:
    /** Mask bytes holding row r's codes, plus its 4-byte offset entry. */
    u64
    rowMetadataBytes(i32 r) const
    {
        const u64 first_bit = 2 * static_cast<u64>(r) * codes.size();
        const u64 end_bit = first_bit + 2 * codes.size();
        return (end_bit - 1) / 8 - first_bit / 8 + 1 + sizeof(u32);
    }

    /**
     * Column of the first R among the `count` codes from code index
     * `start` (count when there is none), read 32 packed codes at a time.
     */
    size_t
    firstR(size_t start, size_t count) const
    {
        constexpr u64 kLowBits = 0x5555555555555555ULL;
        const std::vector<u8> &bytes = frame->mask.bytes();
        const size_t end = start + count;
        for (size_t b = start / 4; b * 4 < end; b += 8) {
            u64 v = 0;
            if (b + 8 <= bytes.size())
                std::memcpy(&v, bytes.data() + b, 8);
            else
                std::memcpy(&v, bytes.data() + b, bytes.size() - b);
            // A code is R (0b11) when both of its bits are set.
            u64 r = v & (v >> 1) & kLowBits;
            const size_t code0 = b * 4;
            if (code0 < start)
                r &= ~u64{0} << (2 * (start - code0));
            if (r != 0) {
                const size_t x = code0 +
                                 static_cast<size_t>(std::countr_zero(r)) / 2;
                return x < end ? x - start : count;
            }
        }
        return count;
    }
};

} // namespace rpx

#endif // RPX_CORE_SOURCE_CARRY_HPP
