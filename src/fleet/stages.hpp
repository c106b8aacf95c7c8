/**
 * @file
 * The pipeline stage graph (rpx::fleet).
 *
 * VisionPipeline::processFrame used to be one 300-line member function;
 * its per-stage logic now lives in five stateless stage objects that
 * operate on a (StreamContext, FrameTask) pair:
 *
 *   Capture  — program region labels (runtime + degradation ladder),
 *              sensor readout / CSI-2 transfer, ISP (or the fast
 *              grayscale path), producing the dense gray frame;
 *   Encode   — rhythmic encode of the gray frame (engine-gated in the
 *              fleet: a worker must hold an encode-engine lease);
 *   Store    — DMA commit of the encoded frame into the stream's
 *              framebuffer ring shard (batched across streams by the
 *              fleet's store worker);
 *   Decode   — whole-frame software decode (strict or corruption-safe)
 *              and the deadline verdict, then the frame's terminal
 *              accounting;
 *   Vision   — optional per-frame application hook (frame sink).
 *
 * Every frame that leaves the graph with a result — decoded, quarantined
 * or shed by the fleet guard — is accounted by one function,
 * accountFrame(): fault sums and the degradation ladder, traffic and
 * energy, the pipeline.* registry counters, the telemetry record, the
 * frame span. What differs between outcomes follows from two facts —
 * whether the frame was decoded and whether it reached the store — so a
 * shed frame cannot drift from a decoded one. (Errored frames have no
 * result and reach neither the registry nor the journal.)
 *
 * Stages are stateless and const: every mutable datum lives in the
 * StreamContext (per-stream state) or the FrameTask (per-frame state), so
 * one set of stage objects serves any number of streams concurrently as
 * long as no stream has two frames inside the graph at once — the
 * invariant the fleet scheduler maintains.
 *
 * Run serially on a single context, the stage sequence is byte-identical
 * to the legacy processFrame: same model updates, same counter values,
 * same telemetry records. The VisionPipeline facade and the 1-stream
 * fleet identity test both pin this down.
 */

#ifndef RPX_FLEET_STAGES_HPP
#define RPX_FLEET_STAGES_HPP

#include <chrono>
#include <functional>

#include "fleet/stream_context.hpp"

namespace rpx::fleet {

/** One frame's journey through the stage graph. */
struct FrameTask {
    StreamContext *stream = nullptr;
    FrameIndex index = 0;
    Image scene; //!< input (RGB for the sensor path, else grayscale)
    /**
     * Borrowed input scene; when set it is used instead of `scene`. The
     * synchronous facade path points this at the caller's image to avoid
     * a per-frame copy; the fleet moves owned scenes into `scene`.
     */
    const Image *scene_ref = nullptr;

    // Stage intermediates.
    Image gray;
    EncodedFrame encoded;
    Csi2FrameStatus csi_status;
    FrameStoreReport store_report;
    double kept = 0.0;
    Bytes pixel_bytes = 0;
    Bytes metadata_bytes = 0;
    u64 pixels_in = 0; //!< dense pixels captured (set by CaptureStage)

    // Timing. `start` anchors the frame's wall-clock latency; the fleet
    // sets `deadline` (EDF) while the facade leaves it unset.
    std::chrono::steady_clock::time_point start;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    double trace_start_us = 0.0; //!< frame-span start (tracing only)
    /**
     * Wall-clock microseconds the frame held an encode engine lease;
     * feeds the admission capacity model's live cost estimate (EWMA).
     */
    double encode_hold_us = 0.0;

    // Telemetry attribution baselines (filled when a sink is attached).
    DramStats dram_before;
    EncoderStats enc_before;
    double lat_sensor = 0.0;
    double lat_isp = 0.0;
    double lat_encode = 0.0;
    double lat_dram_write = 0.0;
    double lat_decode = 0.0;

    PipelineFrameResult result;
};

/** Capture: label programming + sensor/CSI/ISP into the gray frame. */
class CaptureStage
{
  public:
    void run(FrameTask &task) const;
};

/** Encode: dense gray frame -> packed EncodedFrame. */
class EncodeStage
{
  public:
    void run(FrameTask &task) const;
};

/** Store: DMA commit into the stream's framebuffer ring shard. */
class StoreStage
{
  public:
    void run(FrameTask &task) const;
};

/**
 * Decode: whole-frame decode (a quarantined frame holds the last good
 * image), deadline verdict, then accountFrame(task, true, true).
 */
class DecodeStage
{
  public:
    void run(FrameTask &task) const;
};

/**
 * Serve the hold-last-good image as the frame's result: the stream's
 * decoded-frame cache, which holds the last frame that decoded cleanly,
 * or black before there is one.
 */
void holdLastGood(FrameTask &task);

/**
 * Terminal accounting for a frame that leaves the graph with a result:
 * fault sums and the degradation ladder, traffic and its energy split
 * (Appendix A.2), the pipeline.* counters, the FrameTelemetry record with
 * per-region attribution, the frame span and the frame histogram.
 *
 * @param decoded the decode stage ran. Otherwise the frame is shed: its
 *                result is marked shed with kept fraction 0, and the
 *                degradation ladder counts it as a miss while the miss
 *                counters do not.
 * @param stored  the frame reached the store, so the write side (payload
 *                plus one metadata copy) was paid; a decoded frame also
 *                paid the read side. An unstored frame moved no DRAM bytes.
 */
void accountFrame(FrameTask &task, bool decoded, bool stored);

/**
 * Vision: the application end of the graph. Holds an optional frame sink
 * invoked with every completed frame (the fleet's per-stream vision hook);
 * a default-constructed stage is a no-op.
 */
class VisionStage
{
  public:
    using FrameSink =
        std::function<void(StreamContext &, const PipelineFrameResult &)>;

    VisionStage() = default;
    explicit VisionStage(FrameSink sink) : sink_(std::move(sink)) {}

    void
    run(FrameTask &task) const
    {
        if (sink_)
            sink_(*task.stream, task.result);
    }

    bool attached() const { return static_cast<bool>(sink_); }

  private:
    FrameSink sink_;
};

/**
 * Run the full stage sequence inline on one task — the synchronous path
 * shared by the VisionPipeline facade (1 stream, no deadline) and tests.
 */
void runFrameInline(FrameTask &task);

} // namespace rpx::fleet

#endif // RPX_FLEET_STAGES_HPP
