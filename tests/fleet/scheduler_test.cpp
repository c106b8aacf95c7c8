/** @file Unit tests for the fleet's stage queue, in FIFO and EDF order. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fleet/scheduler.hpp"

namespace rpx::fleet {
namespace {

using Order = StageQueue::Order;

FrameTask
taskWithDeadline(u64 index, std::chrono::milliseconds offset)
{
    FrameTask t;
    t.index = static_cast<FrameIndex>(index);
    t.has_deadline = true;
    t.deadline = std::chrono::steady_clock::time_point{} + offset;
    return t;
}

FrameTask
taskNoDeadline(u64 index)
{
    FrameTask t;
    t.index = static_cast<FrameIndex>(index);
    return t;
}

TEST(StageQueue, FifoOrderAndStats)
{
    StageQueue q(Order::Fifo);
    q.push(taskNoDeadline(2));
    q.push(taskNoDeadline(0));
    q.push(taskNoDeadline(1));
    EXPECT_EQ(q.size(), 3u);
    // Arrival order, whatever the frame index says.
    EXPECT_EQ(q.pop()->index, 2);
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_EQ(q.tryPop()->index, 1);
    EXPECT_FALSE(q.tryPop().has_value());
    const StageQueueStats s = q.stats();
    EXPECT_EQ(s.pushes, 3u);
    EXPECT_EQ(s.pops, 3u);
    EXPECT_EQ(s.high_water, 3u);
}

TEST(StageQueue, PopsEarliestDeadlineFirst)
{
    StageQueue q(Order::Edf);
    q.push(taskWithDeadline(0, std::chrono::milliseconds(30)));
    q.push(taskWithDeadline(1, std::chrono::milliseconds(10)));
    q.push(taskWithDeadline(2, std::chrono::milliseconds(20)));
    EXPECT_EQ(q.pop()->index, 1);
    EXPECT_EQ(q.pop()->index, 2);
    EXPECT_EQ(q.tryPop()->index, 0);
    EXPECT_EQ(q.stats().high_water, 3u);
}

TEST(StageQueue, DeadlinelessTasksPopInFrameOrder)
{
    StageQueue q(Order::Edf);
    q.push(taskNoDeadline(2));
    q.push(taskNoDeadline(0));
    q.push(taskNoDeadline(1));
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_EQ(q.pop()->index, 1);
    EXPECT_EQ(q.pop()->index, 2);
}

TEST(StageQueue, UrgentArrivalJumpsTheQueue)
{
    StageQueue q(Order::Edf);
    q.push(taskWithDeadline(0, std::chrono::milliseconds(50)));
    q.push(taskWithDeadline(1, std::chrono::milliseconds(40)));
    EXPECT_EQ(q.pop()->index, 1);
    // A later push with a nearer deadline overtakes the buffered task.
    q.push(taskWithDeadline(2, std::chrono::milliseconds(5)));
    EXPECT_EQ(q.pop()->index, 2);
    EXPECT_EQ(q.pop()->index, 0);
}

/*
 * Cases that hold in either order are written once, as a function of the
 * order, and run once per order. They keep the suite names of the two
 * queue types StageQueue replaced: MpmcQueue.* runs the FIFO order,
 * EdfQueue.* the EDF order.
 */

void
closeDrainsInOrderThenReturnsNullopt(Order order)
{
    StageQueue q(order);
    q.push(taskWithDeadline(0, std::chrono::milliseconds(9)));
    q.push(taskWithDeadline(1, std::chrono::milliseconds(3)));
    q.close();
    EXPECT_TRUE(q.closed());
    const bool edf = order == Order::Edf;
    EXPECT_EQ(q.pop()->index, edf ? 1 : 0);
    EXPECT_EQ(q.pop()->index, edf ? 0 : 1);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(MpmcQueue, CloseDrainsBufferedElements)
{
    closeDrainsInOrderThenReturnsNullopt(Order::Fifo);
}

TEST(EdfQueue, CloseDrainsThenReturnsNullopt)
{
    closeDrainsInOrderThenReturnsNullopt(Order::Edf);
}

/**
 * A queue closes only after every producer of it has exited, so a push
 * into a closed queue is an invariant violation: it is refused with a
 * throw and leaves the queue as it was.
 */
void
pushRefusedAfterClose(Order order)
{
    StageQueue q(order);
    q.push(taskNoDeadline(0));
    q.close();
    EXPECT_THROW(q.push(taskNoDeadline(1)), std::runtime_error);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.stats().pushes, 1u);
    EXPECT_EQ(q.pop()->index, 0);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, PushForRefusedAfterClose)
{
    pushRefusedAfterClose(Order::Fifo);
}

TEST(EdfQueue, PushForRefusedAfterClose)
{
    pushRefusedAfterClose(Order::Edf);
}

TEST(StageQueue, CloseIsIdempotent)
{
    StageQueue q(Order::Fifo);
    q.close();
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.pop().has_value());
}

void
closeWakesBlockedConsumer(Order order)
{
    StageQueue q(order);
    std::thread consumer([&q] { EXPECT_FALSE(q.pop().has_value()); });
    q.close();
    consumer.join();
}

TEST(MpmcQueue, CloseWakesBlockedConsumer)
{
    closeWakesBlockedConsumer(Order::Fifo);
}

TEST(EdfQueue, CloseWakesBlockedConsumer)
{
    closeWakesBlockedConsumer(Order::Edf);
}

void
popForTimesOutOnEmptyQueue(Order order)
{
    StageQueue q(order);
    EXPECT_FALSE(q.popFor(std::chrono::microseconds(1000)).has_value());
    EXPECT_FALSE(q.closed());
}

TEST(MpmcQueue, PopForTimesOutOnEmptyQueue)
{
    popForTimesOutOnEmptyQueue(Order::Fifo);
}

TEST(EdfQueue, PopForTimesOutOnEmptyQueue)
{
    popForTimesOutOnEmptyQueue(Order::Edf);
}

void
popForPopsInQueueOrder(Order order)
{
    StageQueue q(order);
    q.push(taskWithDeadline(0, std::chrono::milliseconds(9)));
    q.push(taskWithDeadline(1, std::chrono::milliseconds(3)));
    q.push(taskWithDeadline(2, std::chrono::milliseconds(6)));
    const bool edf = order == Order::Edf;
    for (const FrameIndex want : {edf ? 1 : 0, edf ? 2 : 1, edf ? 0 : 2})
        EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, want);
}

TEST(MpmcQueue, PopForReturnsBufferedElement)
{
    popForPopsInQueueOrder(Order::Fifo);
}

TEST(EdfQueue, PopForStillPopsEarliestDeadlineFirst)
{
    popForPopsInQueueOrder(Order::Edf);
}

void
popForDrainsAfterClose(Order order)
{
    StageQueue q(order);
    q.push(taskNoDeadline(5));
    q.close();
    EXPECT_EQ(q.popFor(std::chrono::microseconds(1000))->index, 5);
    EXPECT_FALSE(q.popFor(std::chrono::microseconds(1000)).has_value());
}

TEST(MpmcQueue, PopForDrainsAfterClose)
{
    popForDrainsAfterClose(Order::Fifo);
}

TEST(EdfQueue, PopForDrainsAfterClose)
{
    popForDrainsAfterClose(Order::Edf);
}

/** Every pushed index, sorted, must be exactly 0 .. n-1. */
void
expectEachIndexOnce(const std::vector<std::vector<u64>> &seen, size_t n)
{
    std::vector<u64> all;
    for (const auto &part : seen)
        all.insert(all.end(), part.begin(), part.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), n);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], static_cast<u64>(i));
}

/**
 * Contention stress: several producers and blocking consumers share one
 * queue, and every task must arrive exactly once. Run under TSan by the
 * tsan CI job.
 */
TEST(StageQueue, ContentionStressConservesTasks)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;
    StageQueue q(Order::Fifo);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(taskNoDeadline(
                    static_cast<u64>(p * kPerProducer + i)));
        });
    }

    std::vector<std::vector<u64>> seen(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&q, &seen, c] {
            while (auto t = q.pop())
                seen[static_cast<size_t>(c)].push_back(
                    static_cast<u64>(t->index));
        });
    }

    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    constexpr size_t kTotal = size_t{kProducers} * kPerProducer;
    expectEachIndexOnce(seen, kTotal);
    const StageQueueStats s = q.stats();
    EXPECT_EQ(s.pushes, kTotal);
    EXPECT_EQ(s.pops, kTotal);
}

/** A FIFO queue keeps one producer's order even under contention. */
TEST(StageQueue, ContentionPreservesPerProducerOrder)
{
    StageQueue q(Order::Fifo);
    constexpr int kCount = 5000;
    std::thread producer([&q] {
        for (int i = 0; i < kCount; ++i)
            q.push(taskNoDeadline(static_cast<u64>(i)));
        q.close();
    });
    FrameIndex prev = -1;
    size_t popped = 0;
    while (auto t = q.pop()) {
        EXPECT_GT(t->index, prev);
        prev = t->index;
        ++popped;
    }
    producer.join();
    EXPECT_EQ(popped, static_cast<size_t>(kCount));
}

/**
 * Timed-op stress: polling consumers (the watchdog heartbeat pattern)
 * against concurrent producers; every task must arrive exactly once.
 * Run under TSan by the tsan CI job.
 */
void
timedOpsContentionConservesTasks(Order order)
{
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr int kPerProducer = 800;
    StageQueue q(order);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(taskNoDeadline(
                    static_cast<u64>(p * kPerProducer + i)));
        });
    }

    std::vector<std::vector<u64>> seen(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&q, &seen, c] {
            for (;;) {
                auto t = q.popFor(std::chrono::microseconds(200));
                if (t) {
                    seen[static_cast<size_t>(c)].push_back(
                        static_cast<u64>(t->index));
                    continue;
                }
                // The watchdog-worker exit contract: a timed pop that
                // returns nothing only means "done" once the queue is
                // closed AND drained.
                if (q.closed() && q.size() == 0)
                    return;
            }
        });
    }

    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    expectEachIndexOnce(seen, size_t{kProducers} * kPerProducer);
}

TEST(MpmcQueue, TimedOpsContentionConservesElements)
{
    timedOpsContentionConservesTasks(Order::Fifo);
}

TEST(EdfQueue, TimedOpsContentionConservesTasks)
{
    timedOpsContentionConservesTasks(Order::Edf);
}

} // namespace
} // namespace rpx::fleet
