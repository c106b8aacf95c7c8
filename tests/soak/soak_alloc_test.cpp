/**
 * @file
 * Allocation-rate regression guard for the soak path (ISSUE 9).
 *
 * Replaces global operator new/delete with counting wrappers (own binary
 * for the same reason as decode_alloc_test: the hooks are process-global)
 * and runs a churn-free soak, sampling the allocation counter at frame
 * milestones through the frame hook. The per-frame allocation rate of a
 * late window must not creep above the early window's — the signal that
 * something on the per-frame path (journal accounting, queue traffic,
 * decoder pools) started leaking or re-allocating per frame.
 *
 * Per-frame allocations as such are expected (each frame materialises an
 * Image and a telemetry record); *growth* of the rate is the bug.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "soak/soak.hpp"

namespace {

std::atomic<unsigned long long> g_allocations{0};

unsigned long long
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// Out of line so operator new stays small enough to inline: GCC's
// -Wmismatched-new-delete fires when it sees a call to the replaced
// operator new paired with the inlined free() in operator delete.
[[gnu::noinline]] void
countAllocation()
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

// Counting global allocator. Deliberately minimal: count + malloc/free.
void *
operator new(std::size_t size)
{
    countAllocation();
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// The nothrow forms too: std::stable_sort's temporary buffer comes from
// operator new(size_t, nothrow_t), and a sanitizer's own nothrow new
// would otherwise be paired with the free() in the deletes above.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    countAllocation();
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return operator new(size, std::nothrow);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace rpx {
namespace {

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
