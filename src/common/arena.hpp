/**
 * @file
 * FrameArena — a keyed pool of reusable buffers for per-frame scratch
 * space on the decode/ISP path.
 *
 * The decoders used to allocate fresh vectors for every frame (mask bytes,
 * row offsets, burst staging, code scratch); steady-state decode now leases
 * slots from an arena instead, so after the first frame warms the pool no
 * decode-path allocation touches the heap (asserted by
 * tests/core/decode_alloc_test.cpp).
 *
 * Slots are addressed by a small integer key the caller chooses (an enum
 * per call site). Backing storage lives in deques so growing the slot
 * directory never moves or frees an existing buffer — references handed
 * out stay valid for the arena's lifetime. Buffers only ever grow; a slot
 * re-leased with a smaller size keeps its capacity.
 *
 * Not thread-safe: one arena per owner (each decoder owns its own).
 */

#ifndef RPX_COMMON_ARENA_HPP
#define RPX_COMMON_ARENA_HPP

#include <cstddef>
#include <deque>
#include <vector>

#include "common/types.hpp"

namespace rpx {

class FrameArena {
  public:
    /**
     * Byte buffer for slot `key`, resized to `size` (contents
     * unspecified). Capacity is retained across leases.
     */
    std::vector<u8> &bytes(size_t key, size_t size)
    {
        while (byte_slots_.size() <= key)
            byte_slots_.emplace_back();
        std::vector<u8> &v = byte_slots_[key];
        v.resize(size);
        noteLease();
        return v;
    }

    /** Total capacity currently held across all slots, in bytes. */
    size_t retainedBytes() const
    {
        size_t total = 0;
        for (const auto &v : byte_slots_)
            total += v.capacity();
        return total;
    }

    /** Largest retainedBytes() ever observed at a lease. */
    size_t highWaterBytes() const { return high_water_; }

  private:
    void noteLease()
    {
        const size_t retained = retainedBytes();
        if (retained > high_water_)
            high_water_ = retained;
    }

    std::deque<std::vector<u8>> byte_slots_;
    size_t high_water_ = 0;
};

} // namespace rpx

#endif // RPX_COMMON_ARENA_HPP
