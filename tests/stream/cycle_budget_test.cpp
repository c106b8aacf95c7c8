/** @file Unit tests for the pixel-clock cycle budget. */

#include <gtest/gtest.h>

#include "stream/cycle_budget.hpp"

namespace rpx {
namespace {

TEST(CycleBudget, TwoPixelsPerClock)
{
    CycleBudget budget(2.0);
    budget.addPixels(1000);
    budget.addCycles(500);
    EXPECT_TRUE(budget.withinBudget());
    budget.addCycles(1);
    EXPECT_FALSE(budget.withinBudget());
}

TEST(CycleBudget, Reset)
{
    CycleBudget budget(2.0);
    budget.addPixels(10);
    budget.addCycles(100);
    EXPECT_FALSE(budget.withinBudget());
    budget.reset();
    EXPECT_TRUE(budget.withinBudget());
    EXPECT_EQ(budget.pixels(), 0u);
}

} // namespace
} // namespace rpx
