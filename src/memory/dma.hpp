/**
 * @file
 * Line-burst DMA writer.
 *
 * §4.1.2: "the encoder collects a line of pixels before committing a burst
 * DMA write to a framebuffer in the DRAM". The DmaWriter buffers bytes and
 * commits them to the DRAM model when the stage signals end-of-line (or when
 * the line buffer fills), keeping write transactions burst-shaped.
 *
 * Burst transactions on a contended AXI/DDR path can fail transiently.
 * With a fault injector attached (stage Dma), each flush may be rejected;
 * the writer retries with a bounded budget (the first rung of the
 * degradation ladder) and, only when the budget is exhausted, abandons the
 * line — the destination range keeps its stale content and the loss is
 * reported through droppedBursts()/droppedBytes().
 */

#ifndef RPX_MEMORY_DMA_HPP
#define RPX_MEMORY_DMA_HPP

#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "memory/dram.hpp"

namespace rpx {

/**
 * Buffers a line of bytes and writes it to DRAM as one burst transaction.
 */
class DmaWriter
{
  public:
    /**
     * @param dram      destination memory
     * @param base      start address of the destination buffer
     * @param line_capacity maximum bytes buffered before a forced flush
     * @param injector  transient-failure source (null = perfect bursts)
     * @param max_retries re-issue budget per failing burst
     */
    DmaWriter(DramModel &dram, u64 base, size_t line_capacity = 8192,
              fault::FaultInjector *injector = nullptr,
              int max_retries = 3);

    /** Queue one byte for the current line. */
    void push(u8 value);

    /**
     * Queue a block of bytes, appended in line-capacity chunks. Bursts,
     * their order and every injector draw are those of pushing the bytes
     * one at a time.
     */
    void push(const u8 *data, size_t len);

    /**
     * Commit the buffered line to DRAM (no-op when empty). Returns false
     * when the burst failed past the retry budget and the line was lost;
     * the cursor still advances so later lines land at their addresses.
     */
    bool flush();

    /** Bytes committed to DRAM so far (excludes still-buffered bytes). */
    u64 bytesCommitted() const { return committed_; }

    /** Bytes currently buffered awaiting flush. */
    size_t pending() const { return line_.size(); }

    /** Number of burst (flush) operations issued. */
    u64 burstsIssued() const { return bursts_; }

    /** Transient failures that a re-issue recovered. */
    u64 retries() const { return retries_; }

    /** Bursts abandoned after the retry budget ran out. */
    u64 droppedBursts() const { return dropped_bursts_; }

    /** Bytes lost with those bursts. */
    u64 droppedBytes() const { return dropped_bytes_; }

    /** Next DRAM address a flushed byte would land at. */
    u64 cursor() const { return base_ + committed_; }

  private:
    DramModel &dram_;
    u64 base_;
    size_t line_capacity_;
    std::vector<u8> line_;
    u64 committed_ = 0;
    u64 bursts_ = 0;
    u64 retries_ = 0;
    u64 dropped_bursts_ = 0;
    u64 dropped_bytes_ = 0;
    fault::FaultInjector *injector_;
    int max_retries_;
};

} // namespace rpx

#endif // RPX_MEMORY_DMA_HPP
