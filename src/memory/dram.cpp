#include "memory/dram.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace rpx {

DramModel::DramModel(u64 capacity) : capacity_(capacity)
{
    RPX_ASSERT(capacity > 0, "DRAM capacity must be positive");
}

void
DramModel::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_read_bytes_ = obs_write_bytes_ = nullptr;
        obs_read_txns_ = obs_write_txns_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_read_bytes_ = &r.counter("dram.read_bytes");
    obs_write_bytes_ = &r.counter("dram.write_bytes");
    obs_read_txns_ = &r.counter("dram.read_transactions");
    obs_write_txns_ = &r.counter("dram.write_transactions");
}

void
DramModel::checkRange(u64 addr, size_t len) const
{
    if (addr + len > capacity_ || addr + len < addr) {
        throwInvalid("DRAM access out of range: addr=", addr, " len=", len,
                     " capacity=", capacity_);
    }
    if (store_.size() < addr + len) {
        // Grow geometrically: per-burst linear resizes would copy the
        // whole backing store once per DMA line. Inside the reserved
        // range, growth stops at its end, so no page past it is touched.
        u64 target = std::max<u64>(addr + len, store_.size() * 2);
        if (addr + len <= store_.capacity())
            target = std::min<u64>(target, store_.capacity());
        target = std::min(target, capacity_);
        store_.resize(target, 0);
    }
}

void
DramModel::reserve(u64 end)
{
    store_.reserve(std::min(end, capacity_));
}

void
DramModel::write(u64 addr, const u8 *data, size_t len)
{
    if (len == 0)
        return;
    checkRange(addr, len);
    std::memcpy(store_.data() + addr, data, len);
    stats_.bytes_written += len;
    stats_.write_transactions += 1;
    stats_.write_bursts += (len + kBurstBytes - 1) / kBurstBytes;
    if (injector_) {
        // Stored-bit corruption lands in the cell array, so later reads
        // of this range return the damaged bytes.
        if (injector_->corruptBuffer(fault::Stage::DramWrite,
                                     store_.data() + addr, len) > 0)
            ++stats_.corrupted_writes;
        stats_.stall_cycles +=
            injector_->stallEvent(fault::Stage::DramWrite);
    }
    if (obs_write_bytes_) {
        obs_write_bytes_->add(len);
        obs_write_txns_->inc();
    }
}

void
DramModel::write(u64 addr, const std::vector<u8> &data)
{
    write(addr, data.data(), data.size());
}

void
DramModel::read(u64 addr, u8 *out, size_t len) const
{
    if (len == 0)
        return;
    checkRange(addr, len);
    std::memcpy(out, store_.data() + addr, len);
    stats_.bytes_read += len;
    stats_.read_transactions += 1;
    stats_.read_bursts += (len + kBurstBytes - 1) / kBurstBytes;
    if (injector_) {
        // Transient read-path corruption: only the returned beat is
        // damaged; the stored copy stays intact.
        if (injector_->corruptBuffer(fault::Stage::DramRead, out, len) > 0)
            ++stats_.corrupted_reads;
        stats_.stall_cycles += injector_->stallEvent(fault::Stage::DramRead);
    }
    if (obs_read_bytes_) {
        obs_read_bytes_->add(len);
        obs_read_txns_->inc();
    }
}

std::vector<u8>
DramModel::read(u64 addr, size_t len) const
{
    std::vector<u8> out(len);
    read(addr, out.data(), len);
    return out;
}

u8
DramModel::peek(u64 addr) const
{
    checkRange(addr, 1);
    return store_[addr];
}

} // namespace rpx
