/**
 * @file
 * Beat-level streaming front-end for the rhythmic pixel encoder.
 *
 * The frame-at-a-time RhythmicEncoder::encodeFrame() is the fast path the
 * simulator uses; real hardware consumes an AXI-stream of pixel beats.
 * StreamingEncoder models that interface: beats arrive one per call
 * through a depth-16 input FIFO (§5.1), the Sequencer tracks position
 * from the sof/eol sidebands, and the encoded frame materialises when the
 * last beat of the frame has been drained. Output is bit-identical to
 * encodeFrame() (differential-tested).
 */

#ifndef RPX_CORE_STREAM_ENCODER_HPP
#define RPX_CORE_STREAM_ENCODER_HPP

#include <optional>
#include <vector>

#include "core/encoder.hpp"
#include "obs/obs.hpp"
#include "stream/fifo.hpp"
#include "stream/pixel_stream.hpp"

namespace rpx {

/**
 * Streaming encoder front-end.
 */
class StreamingEncoder
{
  public:
    /**
     * @param frame_w  decoded-space frame width
     * @param frame_h  decoded-space frame height
     * @param config   encoder configuration (FIFO depth, work model)
     */
    StreamingEncoder(i32 frame_w, i32 frame_h,
                     const RhythmicEncoder::Config &config);
    StreamingEncoder(i32 frame_w, i32 frame_h)
        : StreamingEncoder(frame_w, frame_h, RhythmicEncoder::Config{})
    {
    }

    /**
     * Program the region label list (sorted by y here when it is not).
     * Labels bind per frame: throws while a frame is in flight.
     */
    void setRegionLabels(std::vector<RegionLabel> regions);

    /** Arm the encoder for frame index `t`. */
    void beginFrame(FrameIndex t);

    /**
     * Push one pixel beat. Returns false when the input FIFO is full and
     * the producer must stall this cycle (retry the same beat).
     */
    bool pushBeat(const PixelBeat &beat);

    /**
     * Drain up to `max_beats` beats from the FIFO through the sampling
     * datapath. Hardware drains continuously; callers interleave pushes
     * and drains to model backpressure, or call finishFrame() to drain
     * everything.
     */
    void drain(size_t max_beats = SIZE_MAX);

    /**
     * Drain remaining beats and return the completed encoded frame.
     * Throws when the frame is incomplete (missing beats).
     */
    EncodedFrame finishFrame();

    /** Beats currently buffered in the input FIFO. */
    size_t pendingBeats() const { return fifo_.size(); }

    /** Producer stalls observed (FIFO-full push attempts). */
    u64 pushStalls() const { return fifo_.pushStalls(); }

    const std::vector<RegionLabel> &regionLabels() const
    {
        return planner_.regionLabels();
    }

    /**
     * Attach an observability context: "stream_encoder.*" counters mirror
     * frames/beats/stalls as frames complete. Null detaches (default).
     */
    void attachObs(obs::ObsContext *ctx);

  private:
    void processBeat(const PixelBeat &beat);
    void startRow(i32 row);

    i32 frame_w_;
    i32 frame_h_;
    /** Owns the labels and plans each frame; its stats stay unused. */
    RhythmicEncoder planner_;
    Fifo<PixelBeat> fifo_;

    // Per-frame state.
    bool in_frame_ = false;
    std::optional<EncodedFrame> current_;
    u64 beats_consumed_ = 0;

    // Sequencer state for the active row: its planned spans and the
    // cursor at the first span not yet left behind.
    const KeptRunPlan *plan_ = nullptr;
    i32 current_row_ = -1;
    u32 row_count_ = 0;
    std::span<const KeptSpan> row_spans_;
    size_t span_cursor_ = 0;
    i32 last_x_ = -1;

    // Cached counter handles; null when no observer is attached.
    obs::Counter *obs_frames_ = nullptr;
    obs::Counter *obs_beats_ = nullptr;
    obs::Counter *obs_stalls_ = nullptr;
    u64 obs_stalls_seen_ = 0; //!< pushStalls() high-water already mirrored
};

} // namespace rpx

#endif // RPX_CORE_STREAM_ENCODER_HPP
