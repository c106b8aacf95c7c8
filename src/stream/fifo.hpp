/**
 * @file
 * Bounded FIFO modelling the depth-16 AXI-stream buffers in the encoder and
 * the response FIFO of the decoder's sampling unit. Push/pop failures are
 * recorded as stall cycles so the timing claims of §6.3 can be checked.
 * Fifo<T> is single-threaded and non-blocking: it models hardware
 * back-pressure. The fleet's software hand-off between threads is
 * fleet::StageQueue (fleet/scheduler.hpp).
 */

#ifndef RPX_STREAM_FIFO_HPP
#define RPX_STREAM_FIFO_HPP

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rpx {

/**
 * Bounded FIFO with stall accounting.
 *
 * Backed by a fixed ring buffer sized at construction — like the hardware
 * it models, a Fifo never touches the allocator after it is built (a
 * deque would allocate a fresh node every time its cursor crossed a node
 * boundary, which the decode-path allocation tests forbid). T must be
 * default-constructible.
 *
 * @tparam T element type (pixel beats, bytes, transactions)
 */
template <typename T>
class Fifo
{
  public:
    /** @param depth maximum number of buffered elements (paper uses 16). */
    explicit Fifo(size_t depth = 16) : depth_(depth), ring_(depth)
    {
        RPX_ASSERT(depth > 0, "FIFO depth must be positive");
    }

    size_t depth() const { return depth_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= depth_; }

    /**
     * Try to enqueue; on a full FIFO the producer stalls (recorded) and the
     * element is rejected.
     * @return true if accepted.
     */
    bool
    tryPush(const T &v)
    {
        if (full()) {
            ++push_stalls_;
            return false;
        }
        ring_[(head_ + count_) % depth_] = v;
        ++count_;
        if (count_ > high_water_)
            high_water_ = count_;
        return true;
    }

    /** Enqueue an element that must fit (internal invariant). */
    void
    push(const T &v)
    {
        RPX_ASSERT(tryPush(v), "push into full FIFO");
    }

    /** Try to dequeue; empty FIFO stalls the consumer (recorded). */
    std::optional<T>
    tryPop()
    {
        if (count_ == 0) {
            ++pop_stalls_;
            return std::nullopt;
        }
        T v = ring_[head_];
        head_ = (head_ + 1) % depth_;
        --count_;
        return v;
    }

    /** Dequeue an element that must exist (internal invariant). */
    T
    pop()
    {
        auto v = tryPop();
        RPX_ASSERT(v.has_value(), "pop from empty FIFO");
        return *v;
    }

    const T &
    front() const
    {
        RPX_ASSERT(count_ != 0, "front of empty FIFO");
        return ring_[head_];
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    u64 pushStalls() const { return push_stalls_; }
    u64 popStalls() const { return pop_stalls_; }
    size_t highWaterMark() const { return high_water_; }

    void
    resetStats()
    {
        push_stalls_ = 0;
        pop_stalls_ = 0;
        high_water_ = count_;
    }

  private:
    size_t depth_;
    std::vector<T> ring_;
    size_t head_ = 0;
    size_t count_ = 0;
    u64 push_stalls_ = 0;
    u64 pop_stalls_ = 0;
    size_t high_water_ = 0;
};

} // namespace rpx

#endif // RPX_STREAM_FIFO_HPP
