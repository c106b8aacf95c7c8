/**
 * @file
 * Allocation-rate regression guard for the soak path.
 *
 * Links the counting global allocator (tests/common/counting_allocator.cpp;
 * own binary because the hooks are process-global) and runs a churn-free
 * soak, sampling the allocation counter at frame milestones through the
 * frame hook. The per-frame allocation rate of a late window must not
 * creep above the early window's — the signal that something on the
 * per-frame path (journal accounting, queue traffic, decoder pools)
 * started leaking or re-allocating per frame.
 *
 * Per-frame allocations as such are expected (each frame materialises an
 * Image and a telemetry record); *growth* of the rate is the bug.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "../common/counting_allocator.hpp"
#include "soak/soak.hpp"

namespace rpx {
namespace {

using test::allocationCount;

TEST(SoakAlloc, SteadyStateAllocationRateDoesNotCreep)
{
    // Milestones bracket two equal-width windows well past warm-up.
    constexpr u64 kW1Lo = 100, kW1Hi = 250, kW2Lo = 400, kW2Hi = 550;
    std::atomic<unsigned long long> at_w1_lo{0}, at_w1_hi{0};
    std::atomic<unsigned long long> at_w2_lo{0}, at_w2_hi{0};

    soak::SoakOptions o;
    o.streams = 4;
    o.duration_s = 5.0; // 150 frames per slot = 600 total
    o.fps = 30.0;
    o.seed = 77;
    o.faults = true;
    o.churn = false; // churn rebuilds StreamContexts; measure steady state
    o.width = 96;
    o.height = 64;
    o.checkpoint_every = 0; // checkpoints allocate log entries
    o.frame_hook = [&](u64 g) {
        if (g == kW1Lo)
            at_w1_lo.store(allocationCount());
        else if (g == kW1Hi)
            at_w1_hi.store(allocationCount());
        else if (g == kW2Lo)
            at_w2_lo.store(allocationCount());
        else if (g == kW2Hi)
            at_w2_hi.store(allocationCount());
    };
    const soak::SoakResult res = soak::runSoak(o);

    ASSERT_TRUE(res.ok) << (res.violations.empty()
                                ? "not ok without violations"
                                : res.violations.front());
    EXPECT_EQ(res.frames, 600u);

    const unsigned long long w1 = at_w1_hi.load() - at_w1_lo.load();
    const unsigned long long w2 = at_w2_hi.load() - at_w2_lo.load();
    ASSERT_GT(at_w1_lo.load(), 0u);
    ASSERT_GT(w1, 0u);
    // Identical work per window; allow 50% headroom plus a fixed slack
    // for thread-interleaving noise at the window boundaries before
    // calling it a creep.
    EXPECT_LE(w2, w1 + w1 / 2 + 512)
        << "per-frame allocation rate grew between identical windows: "
        << w1 << " -> " << w2;
}

} // namespace
} // namespace rpx
