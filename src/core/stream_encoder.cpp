#include "core/stream_encoder.hpp"

#include "common/error.hpp"

namespace rpx {

namespace {

/** The streaming front-end sorts an unsorted label list itself. */
RhythmicEncoder::Config
sortingConfig(RhythmicEncoder::Config config)
{
    config.require_sorted = false;
    return config;
}

} // namespace

StreamingEncoder::StreamingEncoder(i32 frame_w, i32 frame_h,
                                   const RhythmicEncoder::Config &config)
    : frame_w_(frame_w), frame_h_(frame_h),
      planner_(frame_w, frame_h, sortingConfig(config)),
      fifo_(config.fifo_depth)
{
}

void
StreamingEncoder::setRegionLabels(std::vector<RegionLabel> regions)
{
    // The frame in flight reads its plan row by row; labels bind per frame.
    if (in_frame_)
        throwRuntime("setRegionLabels while a frame is in flight");
    planner_.setRegionLabels(std::move(regions));
}

void
StreamingEncoder::beginFrame(FrameIndex t)
{
    RPX_ASSERT(!in_frame_, "beginFrame while a frame is in flight");
    in_frame_ = true;
    beats_consumed_ = 0;
    current_row_ = -1;
    row_count_ = 0;
    plan_ = &planner_.planFrame(t);

    EncodedFrame frame;
    frame.index = t;
    frame.width = frame_w_;
    frame.height = frame_h_;
    frame.mask = EncMask(frame_w_, frame_h_);
    frame.offsets = RowOffsets(frame_h_);
    current_ = std::move(frame);
}

bool
StreamingEncoder::pushBeat(const PixelBeat &beat)
{
    if (!in_frame_)
        throwRuntime("pushBeat outside beginFrame/finishFrame");
    if (!fifo_.tryPush(beat))
        return false;
    // Opportunistic drain keeps the FIFO shallow, like the hardware's
    // free-running sampling datapath.
    if (fifo_.full())
        drain(fifo_.depth() / 2);
    return true;
}

void
StreamingEncoder::startRow(i32 row)
{
    // Close the previous row's offset entry.
    if (current_row_ >= 0) {
        current_->offsets.setRowCount(current_row_, row_count_);
        // Rows with no beats in between (should not happen on a raster
        // stream) would leave gaps; the sequencer insists on order.
        RPX_ASSERT(row == current_row_ + 1,
                   "raster stream skipped or repeated a row");
    } else {
        RPX_ASSERT(row == 0, "frame did not start at row 0");
    }
    current_row_ = row;
    row_count_ = 0;
    row_spans_ = plan_->spans(row);
    span_cursor_ = 0;
    last_x_ = -1;
}

void
StreamingEncoder::processBeat(const PixelBeat &beat)
{
    RPX_ASSERT(beat.x >= 0 && beat.x < frame_w_ && beat.y >= 0 &&
                   beat.y < frame_h_,
               "beat outside the frame");
    if (beat.y != current_row_)
        startRow(beat.y);

    // Sampler: the beat's code from the row's planned spans. Beats come
    // in raster order, so the cursor only moves right; a beat behind the
    // last one rewinds it.
    if (beat.x < last_x_)
        span_cursor_ = 0;
    last_x_ = beat.x;
    while (span_cursor_ < row_spans_.size() &&
           beat.x >= row_spans_[span_cursor_].x1)
        ++span_cursor_;
    PixelCode code = PixelCode::N;
    if (span_cursor_ < row_spans_.size() &&
        beat.x >= row_spans_[span_cursor_].x0)
        code = plan_->codeAt(row_spans_[span_cursor_], beat.x);

    if (code != PixelCode::N)
        current_->mask.set(beat.x, beat.y, code);
    if (code == PixelCode::R) {
        current_->pixels.push_back(beat.value);
        ++row_count_;
    }
    ++beats_consumed_;
}

void
StreamingEncoder::drain(size_t max_beats)
{
    for (size_t i = 0; i < max_beats; ++i) {
        auto beat = fifo_.tryPop();
        if (!beat)
            return;
        processBeat(*beat);
    }
}

EncodedFrame
StreamingEncoder::finishFrame()
{
    if (!in_frame_)
        throwRuntime("finishFrame without beginFrame");
    drain();
    const u64 expected = static_cast<u64>(frame_w_) * frame_h_;
    if (beats_consumed_ != expected) {
        throwRuntime("incomplete frame: consumed ", beats_consumed_,
                     " of ", expected, " beats");
    }
    current_->offsets.setRowCount(current_row_, row_count_);
    in_frame_ = false;
    EncodedFrame out = std::move(*current_);
    current_.reset();
    out.checkConsistency();
    if (obs_frames_) {
        obs_frames_->inc();
        obs_beats_->add(beats_consumed_);
        obs_stalls_->add(fifo_.pushStalls() - obs_stalls_seen_);
        obs_stalls_seen_ = fifo_.pushStalls();
    }
    return out;
}

void
StreamingEncoder::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_frames_ = obs_beats_ = obs_stalls_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_frames_ = &r.counter("stream_encoder.frames");
    obs_beats_ = &r.counter("stream_encoder.beats");
    obs_stalls_ = &r.counter("stream_encoder.push_stalls");
    obs_stalls_seen_ = fifo_.pushStalls();
}

} // namespace rpx
