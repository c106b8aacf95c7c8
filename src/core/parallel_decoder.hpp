/**
 * @file
 * Band-parallel software decoder.
 *
 * The frame is partitioned into horizontal bands that start on multiples
 * of 4 rows (whole bytes of the packed EncMask), and each band is
 * reconstructed independently on a persistent thread pool by a per-band
 * SoftwareDecoder instance. The result is byte-identical to the serial
 * decoder by construction:
 *  - every band runs the exact serial per-row reconstruction over its own
 *    output rows,
 *  - bands only *read* the shared encoded frames (current + history),
 *    which are immutable during the decode — an upscan or history lookup
 *    crossing a band boundary sees the same sources the serial pass
 *    would, because each band decoder primes its source carries from
 *    max_upscan rows above the band,
 *  - each band writes a disjoint row range of the output image.
 * The per-band history-fill / black-pixel tallies are additive per pixel,
 * so summing them reproduces the serial counters exactly. A cached decode
 * (DecodedFrameCache) decides once per frame whether the cache's rows may
 * be reused; its per-row state lives with each row, so bands that write
 * disjoint rows keep byte identity across thread counts.
 */

#ifndef RPX_CORE_PARALLEL_DECODER_HPP
#define RPX_CORE_PARALLEL_DECODER_HPP

#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/sw_decoder.hpp"

namespace rpx {

/**
 * Thread-pooled drop-in for SoftwareDecoder.
 *
 * With threads == 1 (the default) no pool is created and every call is
 * the plain serial path, so wiring this through a pipeline costs nothing
 * until the knob is turned. Each worker band gets its own SoftwareDecoder
 * (decode scratch is instance state), pooled across frames so the
 * zero-steady-state-allocation property survives the fan-out.
 */
class ParallelDecoder
{
  public:
    struct Config {
        /** Underlying decoder configuration. */
        SoftwareDecoder::Config decoder;
        /** Worker threads; 1 = serial, 0 = one per hardware thread. */
        int threads = 1;
        /**
         * Minimum rows per band (a multiple of 4, so every band starts on
         * a whole byte of the packed EncMask).
         */
        i32 min_band_rows = 16;
    };

    explicit ParallelDecoder(const Config &config);
    ParallelDecoder() : ParallelDecoder(Config{}) {}

    /** Resolved worker count (>= 1; 0 in the config resolves here). */
    int threadCount() const { return threads_; }

    /** The band-0 serial decoder (configuration reference). */
    const SoftwareDecoder &serial() const { return *band_[0]; }

    /** See SoftwareDecoder::decodeInto. */
    void decodeInto(const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    Image &out);

    /** See SoftwareDecoder::decodeInto through a cache. */
    void decodeInto(const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    DecodedFrameCache &cache);

    /** See SoftwareDecoder::tryDecode (validation happens once, up
     *  front; bands decode the pre-filtered history). */
    SwDecodeStatus tryDecode(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out);

    /** See SoftwareDecoder::tryDecode through a cache. */
    SwDecodeStatus tryDecode(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             DecodedFrameCache &cache);

    /** Sum of the band decoders' history-fill tallies for the last
     *  decode — equals the serial decoder's count for the same inputs. */
    u64 lastHistoryFills() const { return last_history_fills_; }

    /** Sum of the band decoders' black-pixel tallies for the last decode. */
    u64 lastBlackPixels() const { return last_black_; }

    /** Sum of the band decoders' current-frame reads (each band's carry
     *  also reads the max_upscan rows above it). */
    u64 lastCurrentBytesRead() const { return last_current_read_; }

    /** Sum of the band decoders' history-frame reads. */
    u64 lastHistoryBytesRead() const { return last_history_read_; }

    /** Band row ranges for a frame of `rows` rows (exposed for tests):
     *  an even split rounded up to 4 rows, floored at min_band_rows. */
    static std::vector<std::pair<i32, i32>> partition(i32 rows, int bands,
                                                      i32 min_band_rows);

  private:
    /**
     * Fan the pre-validated decode out across the pool (inline with one
     * thread); `out`, `rows` and `plane` as for SoftwareDecoder's
     * decodeRows.
     */
    void decodeBands(const EncodedFrame &current,
                     const std::vector<const EncodedFrame *> &history,
                     Image &out, DecodedRowState *rows, PlaneState plane);

    /** decodeBands over the whole frame through `cache`. */
    void decodeCached(const EncodedFrame &current,
                      const std::vector<const EncodedFrame *> &history,
                      bool history_complete, DecodedFrameCache &cache);

    Config config_;
    int threads_;
    /** One decoder per band slot; band_[0] doubles as the serial path. */
    std::vector<std::unique_ptr<SoftwareDecoder>> band_;
    /** Null when threads_ == 1. */
    std::unique_ptr<ThreadPool> pool_;
    u64 last_history_fills_ = 0;
    u64 last_black_ = 0;
    u64 last_current_read_ = 0;
    u64 last_history_read_ = 0;
};

} // namespace rpx

#endif // RPX_CORE_PARALLEL_DECODER_HPP
