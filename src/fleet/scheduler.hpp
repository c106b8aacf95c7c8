/**
 * @file
 * The fleet's stage queue (rpx::fleet).
 *
 * StageQueue is the one hand-off between fleet stages: a blocking
 * multi-producer/multi-consumer queue of FrameTasks with close/drain
 * semantics. close() marks the queue done; consumers keep receiving
 * buffered tasks until it is empty, after which pop() returns nullopt.
 * That lets the stage graph shut down front to back without losing
 * in-flight work.
 *
 * push() never blocks, and the queue's storage is sized once, at
 * construction, for `capacity` tasks. Each stream has at most one frame
 * inside the graph, so no queue ever holds more tasks than there are live
 * streams (<= max_streams, the fleet's capacity), and a push that cannot
 * block cannot deadlock the stage cycle. Pushing into a full or a closed
 * queue is an invariant violation, not back-pressure or a shutdown
 * signal: a stage's queue closes only after every producer of it has
 * exited. With storage that never grows, a steady-state push or pop
 * allocates nothing.
 *
 * Only the pop order differs between queues:
 *  - Fifo: arrival order (capture and store), a ring over the storage;
 *  - Edf: earliest deadline first (encode and decode), so when streams
 *    outnumber engines the engines always serve the frames closest to
 *    missing their deadlines — classic EDF, optimal for a single
 *    resource class. Key: (deadline, stream id, frame index); tasks
 *    without a deadline compare equal on the first component and fall
 *    back to round-robin by stream id, then frame order.
 */

#ifndef RPX_FLEET_SCHEDULER_HPP
#define RPX_FLEET_SCHEDULER_HPP

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "fleet/stages.hpp"

namespace rpx::fleet {

/** Traffic counters of one StageQueue. */
struct StageQueueStats {
    u64 pushes = 0;
    u64 pops = 0;
    u64 high_water = 0; //!< peak occupancy
};

/** Blocking FrameTask queue of fixed capacity between two fleet stages. */
class StageQueue
{
  public:
    /** Pop order of a queue. */
    enum class Order { Fifo, Edf };

    /** A queue that holds at most `capacity` (>= 1) tasks. */
    StageQueue(Order order, size_t capacity);

    StageQueue(const StageQueue &) = delete;
    StageQueue &operator=(const StageQueue &) = delete;

    /** Enqueue without blocking; the queue must be open and not full. */
    void push(FrameTask task);

    /**
     * Block until a task is available and pop the next one in the
     * queue's order. Returns nullopt once the queue is closed *and*
     * drained.
     */
    std::optional<FrameTask> pop();
    /**
     * Like pop(), but give up after @p timeout. A nullopt means either
     * closed-and-drained or timed out; watchdogged consumers use the
     * timeout as their heartbeat interval and re-check closed().
     */
    std::optional<FrameTask> popFor(std::chrono::microseconds timeout);
    /** Pop the next task only if one is buffered now. */
    std::optional<FrameTask> tryPop();

    /** Refuse further pushes and wake all consumers. Idempotent. */
    void close();
    bool closed() const;

    size_t size() const;
    StageQueueStats stats() const;

  private:
    /** True when a should run *after* b (max-heap comparator → EDF pop). */
    static bool laterThan(const FrameTask &a, const FrameTask &b);
    FrameTask takeLocked();
    size_t sizeLocked() const { return ring_count_ + heap_.size(); }

    const Order order_;
    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    // One of the two holds the tasks, by order_: a ring of capacity_
    // slots (the next pop at ring_head_) or a heap reserved to capacity_.
    std::vector<FrameTask> ring_;
    size_t ring_head_ = 0;
    size_t ring_count_ = 0;
    std::vector<FrameTask> heap_;
    bool closed_ = false;
    StageQueueStats stats_;
};

} // namespace rpx::fleet

#endif // RPX_FLEET_SCHEDULER_HPP
