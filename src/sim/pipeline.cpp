#include "sim/pipeline.hpp"

namespace rpx {

VisionPipeline::VisionPipeline(const PipelineConfig &config)
    : obs_(std::make_unique<fleet::PipelineObs>(config.obs)),
      ctx_(std::make_unique<fleet::StreamContext>(config, obs_.get())),
      decoder_(std::make_unique<RhythmicDecoder>(ctx_->store()))
{
    decoder_->attachObs(obs_->context());
}

PipelineFrameResult
VisionPipeline::processFrame(const Image &scene)
{
    fleet::FrameTask task;
    task.stream = ctx_.get();
    task.scene_ref = &scene;
    fleet::runFrameInline(task);
    totals_.add(task.result, /*errored=*/false);
    obs_->publish(totals_);
    return std::move(task.result);
}

TrafficSummary
VisionPipeline::traffic() const
{
    const fleet::FrameTotals &t = totals_;
    return {t.bytes_written,  t.bytes_read,     t.metadata_bytes,
            t.footprint_peak, t.footprint_mean, t.frames};
}

} // namespace rpx
