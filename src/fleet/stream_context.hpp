/**
 * @file
 * Per-stream pipeline state (rpx::fleet).
 *
 * The single-sensor VisionPipeline hard-wired one sensor→CSI-2→encoder→
 * DRAM→decoder chain into one class. The fleet refactor splits that into
 *  - StreamContext: everything a camera stream *owns* — its sensor/ISP
 *    models, region registers and runtime, rhythm state, framebuffer ring
 *    shard (FrameStore + DramModel), software decoder and its decoded-
 *    frame cache, resilience ladder, and telemetry label; and
 *  - the stage objects in stages.hpp, which are stateless and operate on
 *    any StreamContext, so a bounded pool of engine workers can time-share
 *    them across thousands of streams (fleet.hpp).
 *
 * The legacy PipelineConfig / PipelineFrameResult structs live here now
 * (still in namespace rpx) so both the VisionPipeline facade and the fleet
 * server share one configuration vocabulary.
 */

#ifndef RPX_FLEET_STREAM_CONTEXT_HPP
#define RPX_FLEET_STREAM_CONTEXT_HPP

#include <array>
#include <memory>
#include <string>

#include "baseline/frame_based.hpp"
#include "core/encoder.hpp"
#include "core/frame_store.hpp"
#include "core/parallel_decoder.hpp"
#include "fault/degradation.hpp"
#include "fault/fault.hpp"
#include "isp/isp_pipeline.hpp"
#include "memory/dram.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "runtime/api.hpp"
#include "runtime/driver.hpp"
#include "runtime/registers.hpp"
#include "sensor/csi2.hpp"
#include "sensor/sensor.hpp"

namespace rpx {

/**
 * Fault-injection and resilience knobs for one pipeline instance. The
 * default-constructed value disables everything: no injector is built, no
 * CRC is written, the strict decode path runs, and per-frame output is
 * byte-identical to a pipeline without this struct.
 */
struct PipelineFaultConfig {
    /**
     * Fault plan to inject from (not owned; copied into the pipeline's
     * injector at construction). Null = no injection.
     */
    const fault::FaultPlan *plan = nullptr;
    /** Seal stored metadata with CRC-32 and verify it on decode. */
    bool crc_metadata = false;
    /**
     * Route whole-frame decodes through the corruption-safe path:
     * quarantined frames hold the last good image instead of throwing.
     */
    bool graceful = false;
    /**
     * Wall-clock frame deadline in milliseconds; 0 (default) disables the
     * wall-clock check (injected Stage::Deadline misses still count).
     */
    double deadline_ms = 0.0;
    /** Escalation-ladder tuning (used when resilience is active). */
    fault::DegradationConfig degradation;

    /** True when any resilience machinery needs to be constructed. */
    bool
    enabled() const
    {
        return plan != nullptr || crc_metadata || graceful ||
               deadline_ms > 0.0;
    }
};

/** Pipeline configuration (one stream's worth). */
struct PipelineConfig {
    i32 width = 640;
    i32 height = 480;
    double fps = 30.0;
    /**
     * When true, scenes go through the Bayer mosaic sensor model and the
     * ISP demosaic (slow, fully faithful). When false, grayscale scenes
     * feed the encoder directly (the fast path used by large sweeps; the
     * encoder input is identical either way up to ISP rounding).
     */
    bool use_sensor_path = false;
    int history = 4;
    u32 max_regions = 1600;
    ComparisonMode comparison_mode = ComparisonMode::Hybrid;
    /**
     * Decoder worker threads for whole-frame software decodes: 1 (default)
     * is the serial path, 0 resolves to one per hardware thread, N > 1
     * decodes row bands concurrently. Output is byte-identical across all
     * settings. (Fleet streams keep this at 1 — fleet parallelism is across
     * streams, not rows.)
     */
    int decoder_threads = 1;
    /**
     * Optional observability context (not owned; must outlive the
     * pipeline). When set, every component registers its counters there,
     * per-stage latencies feed histograms, and — if the context has
     * tracing enabled — each frame emits one Chrome-trace span per stage.
     * Null (the default) keeps all instrumentation disabled at zero cost.
     */
    obs::ObsContext *obs = nullptr;
    /**
     * Optional telemetry sink (not owned; must outlive the pipeline).
     * When set, every processed frame records one FrameTelemetry with
     * stage latencies, traffic/DRAM/energy attribution, fault outcome,
     * and per-region work (the encoder's region attribution is enabled
     * automatically). Null (default) keeps the frame path free of any
     * attribution work.
     */
    obs::TelemetrySink *telemetry = nullptr;
    /**
     * Stream label stamped into every FrameTelemetry record ("stream"
     * field of the journal). Empty (default) omits the field — legacy
     * single-stream journals are unchanged. The fleet server labels each
     * stream "s<id>" so journal totals can be reconciled per stream.
     */
    std::string stream_label;
    /** Fault injection + resilience (default: everything off). */
    PipelineFaultConfig fault;
};

/** Result of pushing one frame through the pipeline. */
struct PipelineFrameResult {
    Image decoded;            //!< what the vision app sees
    double kept_fraction = 0.0; //!< encoded pixels / total pixels
    FrameTraffic traffic;     //!< this frame's memory traffic
    FrameIndex index = 0;
    // Resilience outcome (all-default when PipelineFaultConfig is off).
    bool deadline_missed = false;  //!< wall-clock or injected miss
    bool quarantined = false;      //!< decode rejected the stored frame
    bool held_last_good = false;   //!< decoded is a held earlier frame
    /**
     * Frame shed by the fleet guard before decode: already past its
     * deadline by more than the configured slack (or an injected
     * Stage::Shed verdict), so the engine lease was skipped and `decoded`
     * is the hold-last-good image. Shed is accounted as a first-class
     * outcome — it is *not* a deadline miss and *not* a lost frame.
     */
    bool shed = false;
    int degradation_level = 0;     //!< ladder level after this frame
    u32 csi_dropped_lines = 0;     //!< CSI long-packet lines lost
    u64 transient_faults = 0;      //!< contained faults (DMA retries etc.)
    u64 dma_retries = 0;           //!< DMA bursts retried during store
    u64 dma_dropped_bursts = 0;    //!< DMA bursts dropped during store
    // First-order energy split (Appendix A.2), nanojoules.
    double energy_sense_nj = 0.0;
    double energy_csi_nj = 0.0;
    double energy_dram_nj = 0.0;
};

namespace fleet {

/**
 * The ledger: frame outcomes summed as each frame retires, counted once.
 * FleetServer keeps one per stream and VisionPipeline one for its
 * stream; every frame report, the pipeline.* registry metrics and
 * VisionPipeline::traffic() are views of it.
 */
struct FrameTotals {
    u64 frames = 0; //!< every outcome: delivered, shed and errored
    u64 errors = 0; //!< errored frames carry no result and no journal line
    u64 deadline_misses = 0;
    u64 quarantined = 0;
    u64 shed_frames = 0; //!< shed by the guard (delivered held-good)
    u64 transient_faults = 0;
    u64 dma_retries = 0;
    u64 dma_dropped_bursts = 0;
    Bytes bytes_written = 0;
    Bytes bytes_read = 0;
    Bytes metadata_bytes = 0;
    // Sums over frames that did not error.
    double kept_sum = 0.0;
    double energy_sense_nj = 0.0;
    double energy_csi_nj = 0.0;
    double energy_dram_nj = 0.0;
    /**
     * One stream's framebuffer footprint: peak and running mean over
     * those frames. A fleet-wide sum leaves both zero.
     */
    Bytes footprint_peak = 0;
    double footprint_mean = 0.0;

    /** Count one frame; an errored frame carries no result. */
    void add(const PipelineFrameResult &r, bool errored);
};

/**
 * The pipeline-level registry handles. One instance serves *all* streams
 * of a fleet (or the single stream of a VisionPipeline). The "pipeline.*"
 * outcome counters, the energy gauges and the "degrade.*" outcome
 * counters are views of a ledger, written only by publish(); the stage
 * histograms and the two last-value gauges are fed per frame.
 */
class PipelineObs
{
  public:
    /** Register the pipeline.* handles; null ctx leaves them all null. */
    explicit PipelineObs(obs::ObsContext *ctx);

    obs::ObsContext *context() const { return ctx_; }

    /**
     * A stream built a degradation ladder: register the degrade.*
     * outcome counters, which publish() then writes too. Idempotent.
     */
    void attachLadder();

    /**
     * Bring the outcome counters and energy gauges to `ledger`, a sum
     * that only grows: counters advance by what it gained since the last
     * publish. No-op when detached. Callers serialise publishes.
     */
    void publish(const FrameTotals &ledger);

    // Last-value gauges, set from each frame's result (null when detached).
    obs::Gauge *kept_fraction = nullptr;
    obs::Gauge *footprint = nullptr;
    // Per-stage latency histograms (microseconds), shared across streams.
    obs::Histogram *h_sensor = nullptr;
    obs::Histogram *h_isp = nullptr;
    obs::Histogram *h_encode = nullptr;
    obs::Histogram *h_dram_write = nullptr;
    obs::Histogram *h_decode = nullptr;
    obs::Histogram *h_frame = nullptr;

  private:
    /** The pipeline.* outcome counters, then the ladder's degrade.* ones. */
    static constexpr size_t kCounters = 13;
    static constexpr size_t kLadderCounters = 3;

    obs::ObsContext *ctx_ = nullptr;
    // In the order publish() computes them; the degrade.* ones stay null
    // until attachLadder().
    std::array<obs::Counter *, kCounters> counters_{};
    std::array<u64, kCounters> published_{};
    std::array<obs::Gauge *, 4> energy_{}; //!< sense, CSI, DRAM, total
};

/**
 * Everything one camera stream owns. Stages (stages.hpp) mutate exactly
 * one StreamContext at a time; the fleet scheduler guarantees a stream
 * never has two frames inside the mutable section concurrently (one
 * frame in flight per stream), so no per-context locking is needed.
 */
class StreamContext
{
  public:
    /**
     * @param config  the stream's pipeline configuration
     * @param shared  shared pipeline-level obs handles (may be null when
     *                no observability is attached); not owned
     * @param force_degradation build the degradation controller even when
     *                config.fault alone would not (fleet deadline
     *                scheduling escalates per-stream on misses)
     */
    StreamContext(const PipelineConfig &config, PipelineObs *shared,
                  bool force_degradation = false);

    const PipelineConfig &config() const { return config_; }
    u32 id() const { return id_; }
    void setId(u32 id) { id_ = id; }

    RegionRuntime &runtime() { return *runtime_; }
    RegisterFile &registers() { return registers_; }
    RhythmicEncoder &encoder() { return *encoder_; }
    const RhythmicEncoder &encoder() const { return *encoder_; }
    FrameStore &store() { return *store_; }
    const FrameStore &store() const { return *store_; }
    ParallelDecoder &swDecoder() { return *sw_decoder_; }
    DramModel &dram() { return *dram_; }
    SensorModel &sensor() { return sensor_; }
    Csi2Link &csi() { return csi_; }
    IspPipeline &isp() { return isp_; }

    /** Claim the next frame index of this stream (capture stage). */
    FrameIndex acquireFrameIndex() { return next_frame_++; }
    FrameIndex frameIndex() const { return next_frame_; }

    fault::FaultInjector *injector() { return injector_.get(); }
    fault::DegradationController *degradation() { return degrade_.get(); }

    PipelineObs *sharedObs() { return shared_; }
    const PipelineObs *sharedObs() const { return shared_; }
    obs::TelemetrySink *telemetry() { return config_.telemetry; }

    /**
     * The stream's decoded frame: the decode stage refreshes it in place
     * and copies it out, and hold-last-good serves it.
     */
    DecodedFrameCache &decodedFrame() { return decoded_; }

  private:
    PipelineConfig config_;
    u32 id_ = 0;
    std::unique_ptr<DramModel> dram_;
    SensorModel sensor_;
    Csi2Link csi_;
    IspPipeline isp_;
    RegisterFile registers_;
    std::unique_ptr<RegionDriver> driver_;
    std::unique_ptr<RegionRuntime> runtime_;
    /** Heap-held: as an inline member it measured ~3% fewer frames/s on
     *  hd_foveated and slam_rhythmic (4-vCPU Xeon VM). */
    std::unique_ptr<RhythmicEncoder> encoder_;
    std::unique_ptr<FrameStore> store_;
    std::unique_ptr<ParallelDecoder> sw_decoder_;
    DecodedFrameCache decoded_;
    FrameIndex next_frame_ = 0;

    // Resilience machinery; null unless enabled.
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<fault::DegradationController> degrade_;

    PipelineObs *shared_ = nullptr;
};

} // namespace fleet
} // namespace rpx

#endif // RPX_FLEET_STREAM_CONTEXT_HPP
