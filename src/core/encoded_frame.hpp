/**
 * @file
 * The encoded frame (§3.2): the tightly packed sequence of regional pixels
 * in original raster-scan order, together with its metadata and the frame
 * index it was captured at.
 */

#ifndef RPX_CORE_ENCODED_FRAME_HPP
#define RPX_CORE_ENCODED_FRAME_HPP

#include <vector>

#include "common/types.hpp"
#include "core/encmask.hpp"

namespace rpx {

/**
 * One encoded frame plus its metadata.
 *
 * Invariants (checked by checkConsistency):
 *  - pixels.size() == offsets.total() == number of R codes in the mask
 *  - offsets.offsetOf(y) equals the number of R codes in rows [0, y)
 */
struct EncodedFrame {
    FrameIndex index = 0;     //!< capture frame number
    i32 width = 0;            //!< original (decoded-space) width
    i32 height = 0;           //!< original height
    std::vector<u8> pixels;   //!< packed regional pixels, raster order
    EncMask mask;             //!< 2-bit per-pixel status
    RowOffsets offsets;       //!< per-row encoded-pixel prefix counts
    /**
     * CRC-32 over the packed metadata (mask bytes, then the serialized
     * row-offset table), sealed when the frame is committed to a
     * CRC-protected FrameStore. 0 = unsealed; validate() then skips the
     * CRC comparison, so unprotected pipelines pay nothing.
     */
    u32 metadata_crc = 0;

    /** Bytes of pixel payload. */
    Bytes pixelBytes() const { return pixels.size(); }

    /** Bytes of metadata (mask + row offsets). */
    Bytes
    metadataBytes() const
    {
        return mask.packedBytes() + offsets.packedBytes();
    }

    Bytes totalBytes() const { return pixelBytes() + metadataBytes(); }

    /** Fraction of original pixels kept (0..1). */
    double
    keptFraction() const
    {
        const double denom =
            static_cast<double>(width) * static_cast<double>(height);
        return denom > 0 ? static_cast<double>(pixels.size()) / denom : 0.0;
    }

    /**
     * Serialize the row-offset table to its DRAM byte layout (one
     * little-endian u32 start offset per row) — the representation the
     * frame store writes and the metadata CRC covers.
     */
    std::vector<u8> packOffsets() const;

    /** CRC-32 over mask bytes + packOffsets() (the sealable metadata). */
    u32 computeMetadataCrc() const;

    /** Seal the metadata: metadata_crc = computeMetadataCrc(). */
    void sealMetadata() { metadata_crc = computeMetadataCrc(); }

    /**
     * Bounds-safety check against arbitrary (possibly corrupt) metadata:
     * geometry, row-offset monotonicity, per-row counts within width,
     * totals within frame capacity, payload size (when `check_payload`),
     * and — when the frame is sealed — the metadata CRC. O(height) plus
     * the CRC pass for sealed frames; never throws. A frame that passes
     * with check_payload=true cannot drive a decoder read outside
     * pixels[0, total) provided the decoder also range-checks the
     * mask-derived column prefix (the hardened decode paths do).
     *
     * @param reason  when non-null, receives a description on failure
     *                (a static string)
     * @return true when the frame is safe to decode
     */
    bool validate(const char **reason = nullptr,
                  bool check_payload = true) const;

    /** Throws std::runtime_error when the invariants do not hold. */
    void checkConsistency() const;
};

} // namespace rpx

#endif // RPX_CORE_ENCODED_FRAME_HPP
