#include "core/encoded_frame.hpp"

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace rpx {

std::vector<u8>
EncodedFrame::packOffsets() const
{
    std::vector<u8> bytes;
    bytes.reserve(static_cast<size_t>(height > 0 ? height : 0) *
                  sizeof(u32));
    for (i32 y = 0; y < height; ++y) {
        const u32 v = offsets.offsetOf(y);
        bytes.push_back(static_cast<u8>(v));
        bytes.push_back(static_cast<u8>(v >> 8));
        bytes.push_back(static_cast<u8>(v >> 16));
        bytes.push_back(static_cast<u8>(v >> 24));
    }
    return bytes;
}

u32
EncodedFrame::computeMetadataCrc() const
{
    Crc32 crc;
    crc.update(mask.bytes());
    // Stream the row-offset table in its packed little-endian layout
    // instead of materialising packOffsets(): this runs on every sealed
    // decode (validate) and must not allocate.
    for (i32 y = 0; y < height; ++y) {
        const u32 v = offsets.offsetOf(y);
        const u8 word[4] = {
            static_cast<u8>(v),
            static_cast<u8>(v >> 8),
            static_cast<u8>(v >> 16),
            static_cast<u8>(v >> 24),
        };
        crc.update(word, sizeof(word));
    }
    return crc.value();
}

bool
EncodedFrame::validate(const char **reason, bool check_payload) const
{
    const auto fail = [&](const char *why) {
        if (reason)
            *reason = why;
        return false;
    };
    if (width <= 0 || height <= 0)
        return fail("non-positive frame geometry");
    if (mask.width() != width || mask.height() != height)
        return fail("mask geometry disagrees with frame geometry");
    if (offsets.height() != height)
        return fail("row-offset table height disagrees with frame height");
    if (offsets.offsetOf(0) != 0)
        return fail("row-offset table does not start at 0");
    const u64 capacity = static_cast<u64>(width) * static_cast<u64>(height);
    u32 prev = 0;
    for (i32 y = 1; y < height; ++y) {
        const u32 off = offsets.offsetOf(y);
        if (off < prev)
            return fail("row offsets are not monotone");
        if (off - prev > static_cast<u32>(width))
            return fail("per-row encoded count exceeds the frame width");
        prev = off;
    }
    const u32 total = offsets.total();
    if (total < prev || total - prev > static_cast<u32>(width))
        return fail("last-row encoded count is out of range");
    if (static_cast<u64>(total) > capacity)
        return fail("encoded total exceeds the frame capacity");
    if (check_payload && pixels.size() != total)
        return fail("payload size disagrees with the row-offset total");
    if (metadata_crc != 0 && computeMetadataCrc() != metadata_crc)
        return fail("metadata CRC mismatch");
    return true;
}

void
EncodedFrame::checkConsistency() const
{
    RPX_ASSERT(mask.width() == width && mask.height() == height,
               "EncMask geometry mismatch");
    RPX_ASSERT(offsets.height() == height, "RowOffsets geometry mismatch");
    RPX_ASSERT(offsets.total() == pixels.size(),
               "offset total disagrees with encoded pixel count");
    u32 running = 0;
    for (i32 y = 0; y < height; ++y) {
        RPX_ASSERT(offsets.offsetOf(y) == running,
                   "per-row offset is not the R-code prefix sum");
        running += mask.encodedInRow(y);
    }
    RPX_ASSERT(running == pixels.size(),
               "mask R count disagrees with encoded pixel count");
}

} // namespace rpx
