#include "fleet/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx::fleet {

bool
StageQueue::laterThan(const FrameTask &a, const FrameTask &b)
{
    // Deadline-less tasks all share the epoch value and fall through to
    // the fair tie-break.
    const auto da = a.has_deadline
                        ? a.deadline
                        : std::chrono::steady_clock::time_point{};
    const auto db = b.has_deadline
                        ? b.deadline
                        : std::chrono::steady_clock::time_point{};
    if (da != db)
        return da > db;
    const u32 sa = a.stream ? a.stream->id() : 0;
    const u32 sb = b.stream ? b.stream->id() : 0;
    if (sa != sb)
        return sa > sb;
    return a.index > b.index;
}

void
StageQueue::push(FrameTask task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RPX_ASSERT(!closed_, "push into a closed stage queue");
        if (order_ == Order::Fifo) {
            fifo_.push_back(std::move(task));
        } else {
            heap_.push_back(std::move(task));
            std::push_heap(heap_.begin(), heap_.end(), laterThan);
        }
        ++stats_.pushes;
        stats_.high_water = std::max<u64>(stats_.high_water, sizeLocked());
    }
    not_empty_.notify_one();
}

FrameTask
StageQueue::takeLocked()
{
    ++stats_.pops;
    if (order_ == Order::Fifo) {
        FrameTask task = std::move(fifo_.front());
        fifo_.pop_front();
        return task;
    }
    std::pop_heap(heap_.begin(), heap_.end(), laterThan);
    FrameTask task = std::move(heap_.back());
    heap_.pop_back();
    return task;
}

std::optional<FrameTask>
StageQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || sizeLocked() > 0; });
    if (sizeLocked() == 0)
        return std::nullopt; // closed and drained
    return takeLocked();
}

std::optional<FrameTask>
StageQueue::popFor(std::chrono::microseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout, [this] {
            return closed_ || sizeLocked() > 0;
        }))
        return std::nullopt; // timed out, still empty
    if (sizeLocked() == 0)
        return std::nullopt; // closed and drained
    return takeLocked();
}

std::optional<FrameTask>
StageQueue::tryPop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (sizeLocked() == 0)
        return std::nullopt;
    return takeLocked();
}

void
StageQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
}

bool
StageQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

size_t
StageQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sizeLocked();
}

StageQueueStats
StageQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace rpx::fleet
