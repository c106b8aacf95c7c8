/**
 * @file
 * The end-to-end vision pipeline (Fig. 4): sensor -> ISP -> rhythmic
 * encoder -> DRAM framebuffer ring -> decoder -> application frame, with a
 * runtime for region-label control and full traffic accounting.
 *
 * Since the fleet refactor, VisionPipeline is a thin facade over one
 * rpx::fleet::StreamContext driven synchronously through the stage graph
 * (fleet/stages.hpp) — exactly what FleetServer does for N streams, minus
 * queues and deadlines. The configuration/result structs moved to
 * fleet/stream_context.hpp but remain in namespace rpx, so existing code
 * including this header is unaffected.
 */

#ifndef RPX_SIM_PIPELINE_HPP
#define RPX_SIM_PIPELINE_HPP

#include <memory>

#include "core/decoder.hpp"
#include "fleet/stages.hpp"
#include "fleet/stream_context.hpp"

namespace rpx {

/**
 * Fully wired rhythmic-pixel-regions pipeline (single stream).
 */
class VisionPipeline
{
  public:
    explicit VisionPipeline(const PipelineConfig &config);

    const PipelineConfig &config() const { return ctx_->config(); }

    /** Developer-facing runtime (SetRegionLabels lives here). */
    RegionRuntime &runtime() { return ctx_->runtime(); }

    /** Push one scene frame (RGB for the sensor path, else grayscale). */
    PipelineFrameResult processFrame(const Image &scene);

    /** The encoder frames go through: region list, stats, cycle budget. */
    const RhythmicEncoder &encoder() const { return ctx_->encoder(); }
    /** The PMMU transaction decoder over this pipeline's frame store. */
    RhythmicDecoder &decoder() { return *decoder_; }
    const FrameStore &frameStore() const { return ctx_->store(); }
    const DramModel &dram() const { return ctx_->dram(); }
    const TrafficSummary &traffic() const { return ctx_->traffic(); }
    const Csi2Link &csi() const { return ctx_->csi(); }
    FrameIndex frameIndex() const { return ctx_->frameIndex(); }

    /** Observability context the pipeline reports into (may be null). */
    obs::ObsContext *obsContext() { return obs_ ? obs_->context() : nullptr; }

    /** The fault injector (null when no plan was configured). */
    const fault::FaultInjector *faultInjector() const
    {
        return ctx_->injector();
    }

    /** The degradation controller (null when resilience is off). */
    const fault::DegradationController *degradation() const
    {
        return ctx_->degradation();
    }

    /** The underlying stream context (the fleet view of this pipeline). */
    fleet::StreamContext &streamContext() { return *ctx_; }

  private:
    std::unique_ptr<fleet::PipelineObs> obs_;
    std::unique_ptr<fleet::StreamContext> ctx_;
    std::unique_ptr<RhythmicDecoder> decoder_;
};

} // namespace rpx

#endif // RPX_SIM_PIPELINE_HPP
