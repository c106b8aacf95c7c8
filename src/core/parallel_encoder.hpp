/**
 * @file
 * Row-parallel rhythmic pixel encoder.
 *
 * The paper's Table 5 contrasts a *parallel* comparison engine (one lane
 * per region bank) with the hybrid shortlist design; this class is the
 * software analogue of that parallelism at the row level: the frame is
 * planned once (RhythmicEncoder::planFrame), partitioned into horizontal
 * bands, and each band's rows are written on a persistent thread pool via
 * RhythmicEncoder::encodeRows straight into the one output frame.
 *
 * Output is byte-identical to the serial RhythmicEncoder for every
 * comparison mode, because
 *  - the plan fixes every row's payload offset, mask codes and work
 *    counters before any band runs, and the bands only read it;
 *  - each band runs the exact serial per-row code over its own rows; and
 *  - bands start at multiples of 4 rows, so each band's mask bits occupy a
 *    disjoint whole-byte range and no two bands write the same byte.
 */

#ifndef RPX_CORE_PARALLEL_ENCODER_HPP
#define RPX_CORE_PARALLEL_ENCODER_HPP

#include <memory>

#include "common/thread_pool.hpp"
#include "core/encoder.hpp"

namespace rpx {

/**
 * Thread-pooled drop-in for RhythmicEncoder::encodeFrame.
 *
 * With threads == 1 (the default) no pool is created and encodeFrame is
 * the plain serial path, so wiring this through a pipeline costs nothing
 * until the knob is turned.
 */
class ParallelEncoder
{
  public:
    struct Config {
        /** Underlying encoder configuration (mode, ppc, lanes, ...). */
        RhythmicEncoder::Config encoder;
        /** Worker threads; 1 = serial, 0 = one per hardware thread. */
        int threads = 1;
        /**
         * Minimum rows per band (must be a multiple of 4 to keep band
         * starts byte-aligned in the packed mask). Small frames produce
         * fewer bands than threads rather than degenerate slivers.
         */
        i32 min_band_rows = 16;
    };

    ParallelEncoder(i32 frame_w, i32 frame_h, const Config &config);
    ParallelEncoder(i32 frame_w, i32 frame_h)
        : ParallelEncoder(frame_w, frame_h, Config{})
    {
    }

    i32 frameWidth() const { return serial_.frameWidth(); }
    i32 frameHeight() const { return serial_.frameHeight(); }
    /** Resolved worker count (>= 1; 0 in the config resolves here). */
    int threadCount() const { return threads_; }

    /**
     * The wrapped serial encoder. It owns the region list, stats, and obs
     * handles; parallel frames commit their merged stats into it, so its
     * stats()/withinCycleBudget() describe both paths.
     */
    const RhythmicEncoder &serial() const { return serial_; }

    void setRegionLabels(std::vector<RegionLabel> regions)
    {
        serial_.setRegionLabels(std::move(regions));
    }
    const std::vector<RegionLabel> &regionLabels() const
    {
        return serial_.regionLabels();
    }

    /**
     * Encode one frame, fanning the rows out across the pool. Byte-equal
     * to RhythmicEncoder::encodeFrame for the same inputs.
     */
    EncodedFrame encodeFrame(const Image &gray, FrameIndex t);

    const EncoderStats &stats() const { return serial_.stats(); }
    void resetStats() { serial_.resetStats(); }
    bool withinCycleBudget() const { return serial_.withinCycleBudget(); }
    void attachObs(obs::ObsContext *ctx) { serial_.attachObs(ctx); }

    /**
     * Per-region attribution passthrough. Attribution comes from the
     * frame's plan, which the bands share, so it is the serial encoder's
     * whatever the band split.
     */
    void enableRegionAttribution(bool on)
    {
        serial_.enableRegionAttribution(on);
    }
    bool regionAttributionEnabled() const
    {
        return serial_.regionAttributionEnabled();
    }
    const RegionAttribution &lastFrameAttribution() const
    {
        return serial_.lastFrameAttribution();
    }

    /** Plan frame `t` (see RhythmicEncoder::planFrame). */
    const KeptRunPlan &planFrame(FrameIndex t)
    {
        return serial_.planFrame(t);
    }

    RhythmicEncoder::FrameSummary summarizeFrame(FrameIndex t) const
    {
        return serial_.summarizeFrame(t);
    }

    /** Band row ranges for a frame of `rows` rows (exposed for tests). */
    static std::vector<std::pair<i32, i32>> partition(i32 rows, int bands,
                                                      i32 min_band_rows);

  private:
    RhythmicEncoder serial_;
    int threads_;
    i32 min_band_rows_;
    /** Null when threads_ == 1. */
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace rpx

#endif // RPX_CORE_PARALLEL_ENCODER_HPP
