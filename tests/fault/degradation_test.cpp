/**
 * @file
 * DegradationController ladder tests: escalation on consecutive deadline
 * misses, hold-last-good on quarantine, recovery after clean streaks, and
 * level clamping.
 */

#include <gtest/gtest.h>

#include "fault/degradation.hpp"

namespace rpx {
namespace {

using fault::DegradationConfig;
using fault::DegradationController;
using fault::FrameHealth;

constexpr FrameHealth kClean{};
constexpr FrameHealth kMissed{true, false};
constexpr FrameHealth kQuarantined{false, true};

DegradationConfig
testConfig()
{
    DegradationConfig c;
    c.escalate_after_misses = 2;
    c.recover_after_clean = 3;
    c.max_level = 3;
    c.budget_scale_per_level = 0.5;
    c.skip_boost_per_level = 1;
    return c;
}

TEST(Degradation, StartsAtFullQuality)
{
    DegradationController ctl(testConfig());
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 1.0);
    EXPECT_EQ(ctl.skipBoost(), 0);
    EXPECT_FALSE(ctl.holdLastGood());
}

TEST(Degradation, EscalatesAfterConsecutiveMisses)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 0); // one miss is not a streak yet
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 1);
    EXPECT_EQ(ctl.stats().escalations, 1u);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 0.5);
    EXPECT_EQ(ctl.skipBoost(), 1);
}

TEST(Degradation, CleanFrameBreaksMissStreak)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    ctl.onFrame(kClean);
    ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 0); // never two misses in a row
    EXPECT_EQ(ctl.stats().escalations, 0u);
}

TEST(Degradation, QuarantineHoldsLastGoodWithoutEscalating)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kQuarantined);
    EXPECT_TRUE(ctl.holdLastGood());
    EXPECT_EQ(ctl.level(), 0); // quarantine alone does not escalate

    ctl.onFrame(kClean);
    EXPECT_FALSE(ctl.holdLastGood());
}

TEST(Degradation, QuarantineResetsCleanStreak)
{
    DegradationController ctl(testConfig());
    ctl.onFrame(kMissed);
    ctl.onFrame(kMissed); // level 1
    ctl.onFrame(kClean);
    ctl.onFrame(kClean);
    ctl.onFrame(kQuarantined); // interrupts recovery progress
    ctl.onFrame(kClean);
    ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 1); // streak restarted, not yet recovered
    ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0);
}

TEST(Degradation, RecoversStepwiseAfterCleanStreaks)
{
    DegradationController ctl(testConfig());
    for (int i = 0; i < 4; ++i)
        ctl.onFrame(kMissed); // two escalations -> level 2
    EXPECT_EQ(ctl.level(), 2);

    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 1); // one step back per full clean streak
    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0);
    EXPECT_EQ(ctl.stats().recoveries, 2u);

    for (int i = 0; i < 3; ++i)
        ctl.onFrame(kClean);
    EXPECT_EQ(ctl.level(), 0); // no underflow below full quality
}

TEST(Degradation, ClampsAtMaxLevel)
{
    DegradationController ctl(testConfig());
    for (int i = 0; i < 20; ++i)
        ctl.onFrame(kMissed);
    EXPECT_EQ(ctl.level(), 3);
    EXPECT_DOUBLE_EQ(ctl.regionBudgetScale(), 0.125);
    EXPECT_EQ(ctl.skipBoost(), 3);
    EXPECT_EQ(ctl.stats().escalations, 3u); // clamped, not counted past max
}

TEST(Degradation, InvalidConfigRejected)
{
    DegradationConfig bad = testConfig();
    bad.escalate_after_misses = 0;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);

    bad = testConfig();
    bad.budget_scale_per_level = 1.5;
    EXPECT_THROW(DegradationController{bad}, std::invalid_argument);
}

} // namespace
} // namespace rpx
