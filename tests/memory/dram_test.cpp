/** @file Unit tests for the DRAM model and framebuffer allocator. */

#include <gtest/gtest.h>

#include "memory/dram.hpp"
#include "memory/framebuffer.hpp"

namespace rpx {
namespace {

TEST(Dram, WriteReadRoundTrip)
{
    DramModel dram(1 << 20);
    const std::vector<u8> data{1, 2, 3, 4, 5};
    dram.write(100, data);
    EXPECT_EQ(dram.read(100, 5), data);
}

TEST(Dram, TrafficCounters)
{
    DramModel dram(1 << 20);
    dram.write(0, std::vector<u8>(100, 7));
    dram.read(0, 40);
    const DramStats &s = dram.stats();
    EXPECT_EQ(s.bytes_written, 100u);
    EXPECT_EQ(s.bytes_read, 40u);
    EXPECT_EQ(s.write_transactions, 1u);
    EXPECT_EQ(s.read_transactions, 1u);
    EXPECT_EQ(s.totalBytes(), 140u);
}

TEST(Dram, BurstCounting)
{
    DramModel dram(1 << 20);
    dram.write(0, std::vector<u8>(65, 0)); // 64 + 1 -> 2 bursts
    EXPECT_EQ(dram.stats().write_bursts, 2u);
    dram.read(0, 64); // exactly one burst
    EXPECT_EQ(dram.stats().read_bursts, 1u);
}

TEST(Dram, OutOfRangeThrows)
{
    DramModel dram(128);
    EXPECT_THROW(dram.write(120, std::vector<u8>(16, 0)),
                 std::invalid_argument);
    EXPECT_THROW(dram.read(1000, 1), std::invalid_argument);
}

TEST(Dram, ZeroLengthIsFree)
{
    DramModel dram(128);
    dram.write(0, nullptr, 0);
    EXPECT_EQ(dram.stats().write_transactions, 0u);
}

TEST(Dram, ReservedRangeKeepsContentsAcrossGrowth)
{
    // Writes inside a reserved range, then past its end and past the
    // capacity-clamped reserve: every byte reads back and unwritten
    // bytes read as zero.
    DramModel dram(1 << 12);
    dram.reserve(1 << 20); // clamped to the capacity
    dram.reserve(100);     // never shrinks
    const std::vector<u8> head{1, 2, 3};
    const std::vector<u8> mid{4, 5, 6, 7};
    const std::vector<u8> tail{8, 9};
    dram.write(10, head);
    dram.write(97, mid);
    dram.write(4094, tail);
    EXPECT_EQ(dram.read(10, 3), head);
    EXPECT_EQ(dram.read(97, 4), mid);
    EXPECT_EQ(dram.read(4094, 2), tail);
    EXPECT_EQ(dram.read(200, 2), std::vector<u8>(2, 0));
    EXPECT_THROW(dram.write(4095, tail), std::invalid_argument);
}

TEST(Dram, ResetStats)
{
    DramModel dram(1 << 16);
    dram.write(0, std::vector<u8>(10, 1));
    dram.resetStats();
    EXPECT_EQ(dram.stats().totalBytes(), 0u);
    // Contents survive a stats reset.
    EXPECT_EQ(dram.peek(0), 1);
}

TEST(FramebufferAllocator, AlignedNonOverlapping)
{
    FramebufferAllocator alloc(0x1000, 4096);
    const BufferRange a = alloc.allocate(100, "a");
    const BufferRange b = alloc.allocate(100, "b");
    EXPECT_EQ(a.base % 4096, 0u);
    EXPECT_EQ(b.base % 4096, 0u);
    EXPECT_GE(b.base, a.end());
}

TEST(FramebufferAllocator, FindAndCovering)
{
    FramebufferAllocator alloc;
    const BufferRange a = alloc.allocate(64, "pixels");
    EXPECT_EQ(alloc.find("pixels").base, a.base);
    EXPECT_THROW(alloc.find("missing"), std::invalid_argument);
    EXPECT_EQ(alloc.covering(a.base + 10), &alloc.allocations()[0]);
    EXPECT_EQ(alloc.covering(a.base + 64), nullptr);
}

TEST(FramebufferAllocator, DuplicateNameThrows)
{
    FramebufferAllocator alloc;
    alloc.allocate(10, "x");
    EXPECT_THROW(alloc.allocate(10, "x"), std::invalid_argument);
}

TEST(FramebufferAllocator, AllocatedBytes)
{
    FramebufferAllocator alloc;
    alloc.allocate(100, "a");
    alloc.allocate(200, "b");
    EXPECT_EQ(alloc.allocatedBytes(), 300u);
}

} // namespace
} // namespace rpx
