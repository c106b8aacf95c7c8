/**
 * @file
 * A counting global allocator for allocation-budget tests. Linking
 * counting_allocator.cpp into a test binary replaces the global
 * operator new/delete (every form) with malloc/free wrappers that count
 * each allocation. The hooks are process-global, so only dedicated
 * binaries link it, and tests sample the counters around the calls they
 * measure.
 */

#ifndef RPX_TESTS_COMMON_COUNTING_ALLOCATOR_HPP
#define RPX_TESTS_COMMON_COUNTING_ALLOCATOR_HPP

namespace rpx::test {

/** Allocations so far, on any thread. */
unsigned long long allocationCount();

} // namespace rpx::test

#endif // RPX_TESTS_COMMON_COUNTING_ALLOCATOR_HPP
