/**
 * @file
 * FrameArena retention semantics: capacity is kept across leases (the
 * zero-allocation steady-state contract) and the high-water gauge tracks
 * the true peak.
 */

#include <gtest/gtest.h>

#include "common/arena.hpp"

namespace rpx {
namespace {

TEST(Arena, RetainsCapacityAcrossLeases)
{
    FrameArena arena;
    std::vector<u8> &big = arena.bytes(0, 4096);
    const u8 *data = big.data();
    EXPECT_GE(arena.retainedBytes(), 4096u);
    // Re-leasing smaller keeps the capacity and the storage.
    std::vector<u8> &small = arena.bytes(0, 16);
    EXPECT_EQ(small.data(), data);
    EXPECT_GE(arena.retainedBytes(), 4096u);
}

TEST(Arena, HighWaterTracksPeakAcrossShrink)
{
    FrameArena arena;
    arena.bytes(0, 1 << 16);
    arena.bytes(1, 1 << 12);
    const size_t peak = arena.retainedBytes();
    EXPECT_GE(peak, (1u << 16) + (1u << 12));
    EXPECT_EQ(arena.highWaterBytes(), peak);

    // Smaller re-leases never move the high-water mark down.
    arena.bytes(0, 64);
    EXPECT_EQ(arena.highWaterBytes(), peak);
}

} // namespace
} // namespace rpx
