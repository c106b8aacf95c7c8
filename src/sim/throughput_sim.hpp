/**
 * @file
 * The throughput simulator of §5.3.1: consumes the per-frame region-label
 * trace an application produced, generates the pixel-memory access pattern
 * each capture scheme would exhibit, and reports read/write throughput
 * (bytes/sec) and memory footprint — the machinery behind Fig. 8.
 */

#ifndef RPX_SIM_THROUGHPUT_SIM_HPP
#define RPX_SIM_THROUGHPUT_SIM_HPP

#include <vector>

#include "baseline/frame_based.hpp"
#include "baseline/h264_model.hpp"
#include "baseline/multi_roi.hpp"
#include "core/encoder.hpp"
#include "obs/obs.hpp"
#include "sim/platform.hpp"

namespace rpx {

/** A per-frame region-label trace. */
using RegionTrace = std::vector<std::vector<RegionLabel>>;

/** Throughput simulation parameters. */
struct ThroughputConfig {
    i32 width = 3840;
    i32 height = 2160;
    double fps = 30.0;
    int history = 4;          //!< encoded-frame ring depth (footprint)
    double fcl_scale = 0.25;  //!< FCL resolution scale per axis
    int multi_roi_windows = 16;
    /**
     * Stored pixel format width in bytes (2 = the YUYV-class format a
     * mobile capture pipeline writes). The 2-bit EncMask is 12.5% of a
     * frame at 2 B/px and ≈ 8% at 3 B/px RGB, the overhead the paper
     * quotes. Metadata sizes do not scale with it.
     */
    double bytes_per_pixel = 2.0;
};

/** Throughput simulation output (one Fig. 8 bar). */
struct ThroughputResult {
    TrafficSummary traffic;
    double throughput_mbps = 0.0; //!< read+write, MB/s
    double write_mbps = 0.0;
    double read_mbps = 0.0;
    double footprint_mb = 0.0;    //!< mean resident framebuffer MB
    double footprint_peak_mb = 0.0;
    double kept_fraction = 1.0;   //!< pixels stored / pixels captured
};

/**
 * Region-trace-driven throughput simulator.
 */
class ThroughputSimulator
{
  public:
    explicit ThroughputSimulator(const ThroughputConfig &config);
    ThroughputSimulator() : ThroughputSimulator(ThroughputConfig{}) {}

    const ThroughputConfig &config() const { return config_; }

    /**
     * Evaluate a capture scheme over a region trace. The trace is the
     * rhythmic-pixel label list per frame; FCH/FCL/H264 ignore it, the
     * multi-ROI model reduces it to sensor windows, and RP replays it
     * through the encoder's analytic frame summary.
     */
    ThroughputResult evaluate(CaptureScheme scheme,
                              const RegionTrace &trace) const;

    /**
     * Attach an observability context: each evaluate() then times itself
     * (one "evaluate" span + "throughput_sim.*" counters/gauges of the
     * evaluated traffic). Null detaches (default, zero-cost).
     */
    void attachObs(obs::ObsContext *ctx) { obs_ = ctx; }

  private:
    ThroughputResult evaluateRhythmic(const RegionTrace &trace) const;
    ThroughputResult evaluateMultiRoi(const RegionTrace &trace) const;
    ThroughputResult evaluateFixed(const FrameTraffic &per_frame,
                                   size_t frames) const;
    void publishObs(CaptureScheme scheme, size_t frames,
                    const ThroughputResult &result) const;

    ThroughputConfig config_;
    obs::ObsContext *obs_ = nullptr;
};

} // namespace rpx

#endif // RPX_SIM_THROUGHPUT_SIM_HPP
