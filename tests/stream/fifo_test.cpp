/** @file Unit tests for the bounded FIFO with stall accounting. */

#include <gtest/gtest.h>

#include "stream/fifo.hpp"

namespace rpx {
namespace {

TEST(Fifo, FifoOrder)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
}

TEST(Fifo, FullRejectsAndCountsStall)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.tryPush(1));
    EXPECT_TRUE(f.tryPush(2));
    EXPECT_FALSE(f.tryPush(3));
    EXPECT_EQ(f.pushStalls(), 1u);
    EXPECT_EQ(f.size(), 2u);
}

TEST(Fifo, EmptyPopStalls)
{
    Fifo<int> f(2);
    EXPECT_FALSE(f.tryPop().has_value());
    EXPECT_EQ(f.popStalls(), 1u);
}

TEST(Fifo, PopFromEmptyThrows)
{
    Fifo<int> f(2);
    EXPECT_THROW(f.pop(), std::runtime_error);
}

TEST(Fifo, HighWaterMark)
{
    Fifo<int> f(8);
    for (int i = 0; i < 5; ++i)
        f.push(i);
    f.pop();
    f.pop();
    EXPECT_EQ(f.highWaterMark(), 5u);
}

TEST(Fifo, DefaultDepthIsSixteen)
{
    // §5.1: "input/output buffers are FIFO structures with a depth of 16".
    Fifo<int> f;
    EXPECT_EQ(f.depth(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(f.tryPush(i));
    EXPECT_FALSE(f.tryPush(16));
}

TEST(Fifo, ZeroDepthRejected)
{
    EXPECT_THROW(Fifo<int>(0), std::runtime_error);
}

TEST(Fifo, ResetStatsKeepsContents)
{
    Fifo<int> f(2);
    f.push(1);
    f.push(2);
    (void)f.tryPush(3);
    f.resetStats();
    EXPECT_EQ(f.pushStalls(), 0u);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.front(), 1);
}

} // namespace
} // namespace rpx
