/**
 * @file
 * A small persistent worker pool for data-parallel decode and fleet work.
 *
 * Jobs are type-erased `void()` callables; submit() returns a future that
 * becomes ready when the job finishes (carrying any exception it threw).
 * The pool keeps its threads alive between frames, so per-frame dispatch
 * costs one lock + notify per job instead of a thread spawn — the property
 * the ParallelDecoder's per-band fan-out depends on at video rates.
 */

#ifndef RPX_COMMON_THREAD_POOL_HPP
#define RPX_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace rpx {

/** Fixed-size pool of worker threads draining a shared job queue. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; must be >= 1. (A 1-thread pool is
     *        valid but callers usually special-case it and run inline.)
     */
    explicit ThreadPool(int threads);

    /** Joins all workers; pending jobs are finished first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue a job. The returned future rethrows any exception the job
     * raised, so callers can propagate worker failures to the submitting
     * thread.
     */
    std::future<void> submit(std::function<void()> job);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace rpx

#endif // RPX_COMMON_THREAD_POOL_HPP
