#include "memory/dma.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

DmaWriter::DmaWriter(DramModel &dram, u64 base, size_t line_capacity,
                     fault::FaultInjector *injector, int max_retries)
    : dram_(dram), base_(base), line_capacity_(line_capacity),
      injector_(injector), max_retries_(max_retries)
{
    RPX_ASSERT(line_capacity > 0, "DMA line capacity must be positive");
    RPX_ASSERT(max_retries >= 0, "DMA retry budget must be non-negative");
    line_.reserve(line_capacity);
}

void
DmaWriter::push(u8 value)
{
    line_.push_back(value);
    if (line_.size() >= line_capacity_)
        flush();
}

void
DmaWriter::push(const u8 *data, size_t len)
{
    // Fill the line buffer a chunk at a time, flushing wherever the
    // per-byte push would: the same bursts in the same order.
    while (len > 0) {
        const size_t n = std::min(len, line_capacity_ - line_.size());
        line_.insert(line_.end(), data, data + n);
        data += n;
        len -= n;
        if (line_.size() >= line_capacity_)
            flush();
    }
}

bool
DmaWriter::flush()
{
    if (line_.empty())
        return true;
    if (injector_) {
        // Transient burst failures: re-issue with a bounded budget; an
        // exhausted budget loses the line (stale bytes remain at the
        // destination) but never wedges the writer.
        int attempts = 0;
        while (injector_->dropEvent(fault::Stage::Dma)) {
            if (++attempts > max_retries_) {
                ++dropped_bursts_;
                dropped_bytes_ += line_.size();
                committed_ += line_.size();
                line_.clear();
                return false;
            }
            ++retries_;
        }
    }
    dram_.write(base_ + committed_, line_.data(), line_.size());
    committed_ += line_.size();
    ++bursts_;
    line_.clear();
    return true;
}

} // namespace rpx
