/**
 * @file
 * The encoding-sequence bitmask (EncMask) and per-row offset metadata (§3.3).
 *
 * For every pixel of the original frame the EncMask stores a 2-bit status:
 *
 *   N  (00) non-regional pixel
 *   St (01) regional pixel, but decimated by the spatial stride
 *   Sk (10) regional pixel, but temporally skipped this frame
 *   R  (11) regional pixel, present in the encoded frame
 *
 * Together with the per-row offsets (count of encoded pixels before each
 * row) the decoder can translate any decoded-space pixel address to an
 * encoded-frame offset without consulting region labels.
 */

#ifndef RPX_CORE_ENCMASK_HPP
#define RPX_CORE_ENCMASK_HPP

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rpx {

/** Per-pixel capture status. Numeric values are the paper's bit codes. */
enum class PixelCode : u8 {
    N = 0b00,   //!< non-regional
    St = 0b01,  //!< regional, spatially strided out
    Sk = 0b10,  //!< regional, temporally skipped
    R = 0b11,   //!< regional, encoded
};

/** Printable name of a code ("N", "St", "Sk", "R"). */
const char *pixelCodeName(PixelCode code);

/**
 * Packed 2-bit-per-pixel mask for one frame.
 *
 * Occupies width*height/4 bytes: 25% of a 1 B/px gray frame, and ≈ 8%
 * of a 3 B/px RGB frame, the metadata overhead quoted in §4.1.2.
 */
class EncMask
{
  public:
    EncMask() = default;
    EncMask(i32 w, i32 h);

    /**
     * Reconstruct a mask from its packed DRAM representation (the bytes
     * the frame store wrote). Throws when the byte count does not match
     * the geometry.
     */
    EncMask(i32 w, i32 h, std::vector<u8> packed);

    /**
     * Rebuild in place from a packed byte range, reusing this mask's
     * existing storage (the allocation-free sibling of the packed
     * constructor — the decoder scratchpad leans on it). Throws when
     * `len` does not match the geometry.
     */
    void assign(i32 w, i32 h, const u8 *data, size_t len);

    i32 width() const { return width_; }
    i32 height() const { return height_; }
    bool empty() const { return width_ == 0 || height_ == 0; }

    PixelCode
    at(i32 x, i32 y) const
    {
        const size_t bit = bitIndex(x, y);
        const u8 pair = (bits_[bit >> 3] >> (bit & 7)) & 0b11;
        return static_cast<PixelCode>(pair);
    }

    void
    set(i32 x, i32 y, PixelCode code)
    {
        setBits(bitIndex(x, y), static_cast<unsigned>(code));
    }

    /** Number of R codes in row y strictly before column x. */
    u32 encodedBefore(i32 x, i32 y) const;

    /** Number of R codes in the whole of row y. */
    u32 encodedInRow(i32 y) const;

    /** Count of each code over the whole mask, indexed by code value. */
    std::array<u64, 4> histogram() const;

    /** Size of the packed representation in bytes. */
    size_t packedBytes() const { return bits_.size(); }

    /** Raw packed bytes (2 bits per pixel, row-major, LSB-first). */
    const std::vector<u8> &bytes() const { return bits_; }

    /**
     * Set columns [x0, x0 + n) of row y to `code`: whole bytes of the run
     * are stored as replicated code bytes, and only a partial byte at
     * either end is read back.
     */
    void
    fillRun(i32 y, i32 x0, i32 n, PixelCode code)
    {
        if (n <= 0)
            return;
        RPX_ASSERT(x0 >= 0 && x0 + n <= width_,
                   "EncMask::fillRun out of row");
        size_t bit = bitIndex(x0, y);
        const size_t end = bit + 2 * static_cast<size_t>(n);
        const unsigned c = static_cast<unsigned>(code);
        for (; bit < end && (bit & 7) != 0; bit += 2)
            setBits(bit, c);
        if (end - bit >= 8) {
            const size_t whole = (end - bit) / 8;
            std::memset(bits_.data() + bit / 8, static_cast<int>(c * 0x55),
                        whole);
            bit += whole * 8;
        }
        for (; bit < end; bit += 2)
            setBits(bit, c);
    }

    /**
     * Set `count` columns x, x + step, ... of row y to R. R is the
     * all-ones code, so each column is one OR.
     */
    void
    markR(i32 y, i32 x, u32 count, i32 step)
    {
        if (count == 0)
            return;
        const i64 last = x + static_cast<i64>(step) * (count - 1);
        RPX_ASSERT(x >= 0 && step > 0 && last < width_ && y >= 0 &&
                       y < height_,
                   "EncMask::markR out of bounds");
        size_t bit = bitIndex(x, y);
        const size_t bit_step = 2 * static_cast<size_t>(step);
        for (u32 i = 0; i < count; ++i, bit += bit_step)
            bits_[bit >> 3] |= static_cast<u8>(0b11u << (bit & 7));
    }

    bool operator==(const EncMask &) const = default;

  private:
    void
    setBits(size_t bit, unsigned code)
    {
        u8 &byte = bits_[bit >> 3];
        byte = static_cast<u8>((byte & ~(0b11u << (bit & 7))) |
                               (code << (bit & 7)));
    }

    size_t
    bitIndex(i32 x, i32 y) const
    {
        RPX_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_,
                   "EncMask access out of bounds");
        return (static_cast<size_t>(y) * static_cast<size_t>(width_) +
                static_cast<size_t>(x)) * 2;
    }

    i32 width_ = 0;
    i32 height_ = 0;
    std::vector<u8> bits_;
};

/**
 * Render a mask as ASCII art (Fig. 2-style view): one character per
 * `cell` x `cell` block, showing the dominant code — '.' N, ':' St,
 * 's' Sk, '#' R. Rows end with '\n'.
 */
std::string maskToAscii(const EncMask &mask, i32 cell = 8);

/**
 * Per-row offsets: offsets()[y] counts encoded pixels in rows [0, y).
 * One extra entry at the end holds the total encoded pixel count.
 */
class RowOffsets
{
  public:
    RowOffsets() = default;

    /** Build from a completed mask (reference path / software encoder). */
    explicit RowOffsets(const EncMask &mask);

    /** Build incrementally: start empty, append per-row counts. */
    explicit RowOffsets(i32 height);

    /**
     * Reset to `height` zeroed rows, reusing existing storage (the
     * allocation-free sibling of the height constructor).
     */
    void reset(i32 height);

    /** Record that row `y` produced `count` encoded pixels. */
    void setRowCount(i32 y, u32 count);

    /** Offset of the first encoded pixel of row y. */
    u32
    offsetOf(i32 y) const
    {
        RPX_ASSERT(y >= 0 && static_cast<size_t>(y) < offsets_.size(),
                   "RowOffsets out of bounds");
        return offsets_[static_cast<size_t>(y)];
    }

    /** Total encoded pixels in the frame. */
    u32
    total() const
    {
        return offsets_.empty() ? 0 : offsets_.back();
    }

    i32 height() const { return static_cast<i32>(offsets_.size()) - 1; }

    /** Bytes this table occupies in DRAM (4 bytes per row). */
    size_t
    packedBytes() const
    {
        return offsets_.empty() ? 0 : (offsets_.size() - 1) * sizeof(u32);
    }

    bool operator==(const RowOffsets &) const = default;

  private:
    /** offsets_[y] = encoded pixels before row y; size = height + 1. */
    std::vector<u32> offsets_;
};

} // namespace rpx

#endif // RPX_CORE_ENCMASK_HPP
