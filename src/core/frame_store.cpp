#include "core/frame_store.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "memory/dma.hpp"

namespace rpx {

FrameStore::FrameStore(DramModel &dram, i32 frame_w, i32 frame_h,
                       int history)
    : dram_(dram), frame_w_(frame_w), frame_h_(frame_h), history_(history)
{
    if (frame_w <= 0 || frame_h <= 0)
        throwInvalid("FrameStore geometry must be positive");
    if (history < 1)
        throwInvalid("FrameStore history must be at least 1");

    // Pre-allocate a fixed ring of slots sized for worst-case (full-frame)
    // capture, like a real framebuffer ring would be.
    const u64 pixel_capacity =
        static_cast<u64>(frame_w) * static_cast<u64>(frame_h);
    const u64 mask_capacity = (pixel_capacity * 2 + 7) / 8;
    const u64 offsets_capacity = static_cast<u64>(frame_h) * sizeof(u32);
    for (int i = 0; i < history; ++i) {
        const std::string tag = "slot" + std::to_string(i);
        StoredFrameAddrs addrs;
        addrs.pixels = allocator_.allocate(pixel_capacity, tag + ".pixels");
        addrs.mask = allocator_.allocate(mask_capacity, tag + ".mask");
        addrs.offsets =
            allocator_.allocate(offsets_capacity, tag + ".offsets");
        addrs.crc = allocator_.allocate(sizeof(u32), tag + ".crc");
        slot_addrs_.push_back(addrs);
    }
}

FrameStoreReport
FrameStore::store(EncodedFrame frame)
{
    if (frame.width != frame_w_ || frame.height != frame_h_)
        throwInvalid("stored frame geometry mismatch");
    frame.checkConsistency();

    // Back the whole slot ring before its first write, so the DRAM
    // backing store stops at the ring's end (a no-op once backed).
    dram_.reserve(slot_addrs_.back().crc.end());

    FrameStoreReport report;
    const StoredFrameAddrs &addrs = slot_addrs_[next_slot_];
    next_slot_ = (next_slot_ + 1) % slot_addrs_.size();

    // Pixel payload: line-burst DMA, one flush per encoded row (§4.1.2).
    // With an injector attached bursts can fail transiently; the writer
    // retries within its budget, and a line lost past it simply leaves the
    // slot's previous content in that range.
    DmaWriter dma(dram_, addrs.pixels.base, 8192, injector_);
    size_t cursor = 0;
    for (i32 y = 0; y < frame.height; ++y) {
        const u32 row_start = frame.offsets.offsetOf(y);
        const u32 row_end = (y + 1 < frame.height)
                                ? frame.offsets.offsetOf(y + 1)
                                : frame.offsets.total();
        dma.push(frame.pixels.data() + row_start, row_end - row_start);
        dma.flush();
        cursor += row_end - row_start;
    }
    RPX_ASSERT(cursor == frame.pixels.size(),
               "DMA cursor mismatch while storing frame");
    report.dma_retries = dma.retries();
    report.dma_dropped_bursts = dma.droppedBursts();
    report.dma_dropped_bytes = dma.droppedBytes();

    // Metadata: packed mask bytes + row-offset table. The CRC seal is
    // computed from the clean representation before any injected damage,
    // so decoders can tell a corrupted table from a valid one.
    std::vector<u8> mask_bytes = frame.mask.bytes();
    std::vector<u8> offs_bytes = frame.packOffsets();
    if (crc_protect_) {
        frame.sealMetadata();
        report.crc_sealed = true;
    }

    if (injector_) {
        // In-flight metadata corruption (stage FrameMeta) hits the packed
        // bytes on their way to DRAM.
        report.meta_bytes_corrupted =
            injector_->corruptBuffer(fault::Stage::FrameMeta,
                                     mask_bytes.data(), mask_bytes.size()) +
            injector_->corruptBuffer(fault::Stage::FrameMeta,
                                     offs_bytes.data(), offs_bytes.size());
    }

    dram_.write(addrs.mask.base, mask_bytes);
    dram_.write(addrs.offsets.base, offs_bytes);
    if (crc_protect_) {
        const u32 crc = frame.metadata_crc;
        const u8 cell[4] = {static_cast<u8>(crc),
                            static_cast<u8>(crc >> 8),
                            static_cast<u8>(crc >> 16),
                            static_cast<u8>(crc >> 24)};
        dram_.write(addrs.crc.base, cell, sizeof(cell));
    }

    bytes_written_ += frame.pixelBytes() + mask_bytes.size() +
                      offs_bytes.size() + (crc_protect_ ? sizeof(u32) : 0);

    if (report.meta_bytes_corrupted > 0) {
        // Keep the in-model slot coherent with the damaged DRAM image:
        // rebuild mask and offsets from the corrupted bytes with the same
        // reconstruction the decoder's metadata scratchpad applies (row
        // counts from adjacent start-offset diffs; last row from the
        // mask). The CRC seal still reflects the clean metadata, so
        // validate() on this slot now reports the mismatch.
        frame.mask =
            EncMask(frame.width, frame.height, std::move(mask_bytes));
        RowOffsets offsets(frame.height);
        auto word = [&](i32 y) {
            const size_t b = static_cast<size_t>(y) * 4;
            return static_cast<u32>(offs_bytes[b]) |
                   (static_cast<u32>(offs_bytes[b + 1]) << 8) |
                   (static_cast<u32>(offs_bytes[b + 2]) << 16) |
                   (static_cast<u32>(offs_bytes[b + 3]) << 24);
        };
        for (i32 y = 0; y + 1 < frame.height; ++y)
            offsets.setRowCount(y, word(y + 1) - word(y));
        offsets.setRowCount(frame.height - 1,
                            frame.mask.encodedInRow(frame.height - 1));
        frame.offsets = std::move(offsets);
    }

    lifetime_.dma_retries += report.dma_retries;
    lifetime_.dma_dropped_bursts += report.dma_dropped_bursts;
    lifetime_.dma_dropped_bytes += report.dma_dropped_bytes;
    lifetime_.meta_bytes_corrupted += report.meta_bytes_corrupted;
    lifetime_.crc_sealed = lifetime_.crc_sealed || report.crc_sealed;

    slots_.push_front(Slot{std::move(frame), addrs});
    while (slots_.size() > static_cast<size_t>(history_))
        slots_.pop_back();
    return report;
}

const EncodedFrame *
FrameStore::recent(size_t k) const
{
    if (k >= slots_.size())
        return nullptr;
    return &slots_[k].frame;
}

const StoredFrameAddrs *
FrameStore::recentAddrs(size_t k) const
{
    if (k >= slots_.size())
        return nullptr;
    return &slots_[k].addrs;
}

Bytes
FrameStore::pixelFootprint() const
{
    Bytes total = 0;
    for (const auto &s : slots_)
        total += s.frame.pixelBytes();
    return total;
}

Bytes
FrameStore::metadataFootprint() const
{
    Bytes total = 0;
    for (const auto &s : slots_)
        total += s.frame.metadataBytes();
    return total;
}

} // namespace rpx
