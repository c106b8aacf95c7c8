/**
 * @file
 * First-order LPDDR4 DRAM model.
 *
 * The paper's headline metrics — pixel memory throughput and footprint — are
 * transaction counts over the DDR interface (§5.3.1). This model provides a
 * flat byte-addressable store with burst semantics and read/write accounting,
 * sufficient to reproduce those numbers exactly while remaining fast.
 */

#ifndef RPX_MEMORY_DRAM_HPP
#define RPX_MEMORY_DRAM_HPP

#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace rpx {

/** Aggregate traffic counters for one DRAM interface. */
struct DramStats {
    Bytes bytes_read = 0;
    Bytes bytes_written = 0;
    u64 read_transactions = 0;
    u64 write_transactions = 0;
    u64 read_bursts = 0;
    u64 write_bursts = 0;
    /** Contention-stall penalty charged by an attached fault injector. */
    Cycles stall_cycles = 0;
    /** Transactions whose data was corrupted by an attached injector. */
    u64 corrupted_reads = 0;
    u64 corrupted_writes = 0;

    Bytes totalBytes() const { return bytes_read + bytes_written; }

    void
    reset()
    {
        *this = DramStats{};
    }
};

/**
 * Byte-addressable DRAM with burst accounting.
 *
 * Addresses are offsets into a single flat space (the model does not emulate
 * bank/row structure; the paper's evaluation does not depend on it).
 */
class DramModel
{
  public:
    /** LPDDR4 x32 burst length 16 => 64-byte minimum burst. */
    static constexpr u32 kBurstBytes = 64;

    /** @param capacity total bytes (default 4 GB like the ZCU102 board). */
    explicit DramModel(u64 capacity = 4ULL << 30);

    u64 capacity() const { return capacity_; }

    /**
     * Back addresses below `end` (clamped to the capacity) without
     * writing them: the backing store then grows no further than `end`
     * while accesses stay below it. A FrameStore reserves its slot ring.
     */
    void reserve(u64 end);

    /** Write `data` at `addr`; counts one transaction + ceil burst count. */
    void write(u64 addr, const u8 *data, size_t len);
    void write(u64 addr, const std::vector<u8> &data);

    /** Read `len` bytes at `addr` into `out`. */
    void read(u64 addr, u8 *out, size_t len) const;
    std::vector<u8> read(u64 addr, size_t len) const;

    /** Single-byte peek without traffic accounting (for debugging). */
    u8 peek(u64 addr) const;

    const DramStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /**
     * Attach an observability context: registers "dram.*" counters and
     * mirrors traffic into them from then on. Null detaches (the default;
     * accesses then cost no instrumentation beyond one branch).
     */
    void attachObs(obs::ObsContext *ctx);

    /**
     * Attach a fault injector. Writes consult stage DramWrite: stored
     * bits can be flipped after commit (retention/ECC-escape errors) and
     * transactions can stall for bandwidth-contention cycles. Reads
     * consult stage DramRead: the returned data — not the stored copy —
     * can be corrupted (transient bus/sense errors). Null detaches (the
     * default; accesses then cost one branch).
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

  private:
    void checkRange(u64 addr, size_t len) const;

    u64 capacity_;
    /** Backing store, grown lazily to the high-water address. */
    mutable std::vector<u8> store_;
    mutable DramStats stats_;
    fault::FaultInjector *injector_ = nullptr;

    // Cached counter handles; null when no observer is attached.
    obs::Counter *obs_read_bytes_ = nullptr;
    obs::Counter *obs_write_bytes_ = nullptr;
    obs::Counter *obs_read_txns_ = nullptr;
    obs::Counter *obs_write_txns_ = nullptr;
};

} // namespace rpx

#endif // RPX_MEMORY_DRAM_HPP
