/** @file Unit tests for the line-burst DMA writer. */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "memory/dma.hpp"

namespace rpx {
namespace {

TEST(Dma, BuffersUntilFlush)
{
    DramModel dram(1 << 16);
    DmaWriter dma(dram, 0x100);
    dma.push(1);
    dma.push(2);
    EXPECT_EQ(dma.pending(), 2u);
    EXPECT_EQ(dma.bytesCommitted(), 0u);
    EXPECT_EQ(dram.stats().write_transactions, 0u);

    dma.flush();
    EXPECT_EQ(dma.pending(), 0u);
    EXPECT_EQ(dma.bytesCommitted(), 2u);
    EXPECT_EQ(dram.stats().write_transactions, 1u);
    EXPECT_EQ(dram.peek(0x100), 1);
    EXPECT_EQ(dram.peek(0x101), 2);
}

TEST(Dma, SequentialLines)
{
    DramModel dram(1 << 16);
    DmaWriter dma(dram, 0);
    for (u8 v = 0; v < 10; ++v)
        dma.push(v);
    dma.flush();
    for (u8 v = 10; v < 20; ++v)
        dma.push(v);
    dma.flush();
    EXPECT_EQ(dma.burstsIssued(), 2u);
    for (u8 v = 0; v < 20; ++v)
        EXPECT_EQ(dram.peek(v), v);
}

TEST(Dma, AutoFlushAtCapacity)
{
    DramModel dram(1 << 16);
    DmaWriter dma(dram, 0, /*line_capacity=*/4);
    for (u8 v = 0; v < 6; ++v)
        dma.push(v);
    // One automatic flush at 4 bytes, 2 still pending.
    EXPECT_EQ(dma.burstsIssued(), 1u);
    EXPECT_EQ(dma.pending(), 2u);
    dma.flush();
    EXPECT_EQ(dma.bytesCommitted(), 6u);
}

TEST(Dma, FlushEmptyIsNoop)
{
    DramModel dram(1 << 16);
    DmaWriter dma(dram, 0);
    dma.flush();
    EXPECT_EQ(dma.burstsIssued(), 0u);
    EXPECT_EQ(dram.stats().write_transactions, 0u);
}

TEST(Dma, BlockPush)
{
    DramModel dram(1 << 16);
    DmaWriter dma(dram, 0x40);
    const u8 block[5] = {9, 8, 7, 6, 5};
    dma.push(block, 5);
    dma.flush();
    EXPECT_EQ(dram.read(0x40, 5), (std::vector<u8>{9, 8, 7, 6, 5}));
    EXPECT_EQ(dma.cursor(), 0x40u + 5u);
}

/**
 * A block push is the per-byte push in bulk: under a DMA fault plan that
 * fails and drops bursts, the same bytes reach DRAM in the same bursts,
 * with the same retries, drops and injector draws, for blocks that
 * straddle, fill and overrun the line capacity.
 */
TEST(Dma, BulkPushMatchesPerBytePushUnderFaults)
{
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.at(fault::Stage::Dma).drop_rate = 0.4;
    std::vector<u8> data(300);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 7 + 3);
    const size_t blocks[] = {0, 5, 16, 17, 1, 64, 40, 157};

    DramModel bulk_dram(1 << 12);
    DramModel byte_dram(1 << 12);
    fault::FaultInjector bulk_inj(plan);
    fault::FaultInjector byte_inj(plan);
    DmaWriter bulk(bulk_dram, 0x80, 16, &bulk_inj, 1);
    DmaWriter bytes(byte_dram, 0x80, 16, &byte_inj, 1);
    size_t at = 0;
    for (const size_t len : blocks) {
        bulk.push(data.data() + at, len);
        for (size_t i = 0; i < len; ++i)
            bytes.push(data[at + i]);
        at += len;
        EXPECT_EQ(bulk.pending(), bytes.pending());
        EXPECT_EQ(bulk.burstsIssued(), bytes.burstsIssued());
        if (len % 2) {
            EXPECT_EQ(bulk.flush(), bytes.flush());
        }
    }
    bulk.flush();
    bytes.flush();
    EXPECT_GT(bulk.retries() + bulk.droppedBursts(), 0u);
    EXPECT_EQ(bulk.retries(), bytes.retries());
    EXPECT_EQ(bulk.droppedBursts(), bytes.droppedBursts());
    EXPECT_EQ(bulk.droppedBytes(), bytes.droppedBytes());
    EXPECT_EQ(bulk.bytesCommitted(), bytes.bytesCommitted());
    EXPECT_EQ(bulk_dram.read(0x80, at), byte_dram.read(0x80, at));
    EXPECT_EQ(bulk_dram.stats().write_transactions,
              byte_dram.stats().write_transactions);
    EXPECT_EQ(bulk_dram.stats().bytes_written,
              byte_dram.stats().bytes_written);
    // Both injectors drew the same number of times: their next draws agree.
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(bulk_inj.dropEvent(fault::Stage::Dma),
                  byte_inj.dropEvent(fault::Stage::Dma));
}

} // namespace
} // namespace rpx
