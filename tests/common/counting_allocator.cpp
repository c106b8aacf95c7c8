#include "counting_allocator.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<unsigned long long> g_allocations{0};

}

namespace rpx::test {

unsigned long long
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace rpx::test

namespace {

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

