/**
 * @file
 * Multi-stream fleet server (rpx::fleet).
 *
 * FleetServer drives N simulated camera streams through the shared stage
 * graph with a bounded pool of encoder/decoder engines — the "one SoC,
 * many sensors" regime the paper's §7 scaling argument points at. The
 * topology:
 *
 *    submit ──► capture workers ──► EDF ──► encode workers (engine pool)
 *                                               │
 *            decode workers (engine pool) ◄── EDF ◄── store worker
 *                   │                                (batched DMA)
 *            completion: vision sink, accounting, resubmit frame n+1
 *
 * Scheduling is earliest-deadline-first: every frame of stream s carries
 * deadline epoch(s) + (n+1) * period(s), and the EDF queues hand engines
 * to the most urgent frame fleet-wide. Misses feed the per-stream
 * DegradationController, so an overloaded stream sheds region budget and
 * coarsens rhythm instead of stalling its neighbours.
 *
 * Invariant: at most ONE frame of each stream is inside the graph at any
 * time (frame n+1 is submitted by frame n's completion). Consequences:
 *  - per-stream frame order is trivially preserved;
 *  - total in-flight tasks <= active streams <= max_streams, so no queue
 *    ever holds more than max_streams tasks; each queue is sized once to
 *    max_streams, a push never blocks, and the submit->capture->encode->
 *    store->decode->submit cycle cannot deadlock;
 *  - fleet memory is bounded by the per-stream contexts plus at most one
 *    in-flight frame per stream.
 *
 * A 1-stream fleet with deadlines disabled performs, frame for frame,
 * exactly the legacy VisionPipeline::processFrame sequence (the identity
 * test pins byte-equality of decoded frames and telemetry totals).
 */

#ifndef RPX_FLEET_FLEET_HPP
#define RPX_FLEET_FLEET_HPP

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fleet/engine_pool.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/stages.hpp"
#include "guard/guard.hpp"
#include "obs/perf_registry.hpp"

namespace rpx::fleet {

/** Per-stream outcome in a FleetReport. */
struct FleetStreamReport {
    u32 id = 0;
    std::string label;
    FrameTotals totals; //!< the stream's ledger entry
    int degradation_level = 0; //!< ladder level after the last frame
    bool completed = false;    //!< reached its frame target (vs removed)
    // Health state machine outcome (deterministic from frame outcomes).
    guard::HealthState health = guard::HealthState::Healthy;
    u64 health_transitions = 0;
    u64 health_recoveries = 0; //!< quarantined → recovered transitions
    u64 watchdog_warns = 0;    //!< wall-clock warnings (non-deterministic)
    bool evicted = false;      //!< removed by watchdog verdict
};

/** Fleet topology and scheduling configuration. */
struct FleetConfig {
    /** Template pipeline configuration applied to every stream. */
    PipelineConfig stream;
    /** Number of streams created up front. */
    u32 streams = 1;
    /** Frames each stream must complete; must be >= 1. */
    u32 frames_per_stream = 1;
    /**
     * Hard ceiling on concurrently active streams (initial + joined): the
     * admission cap. It also bounds every inter-stage queue's occupancy,
     * since each stream has at most one frame in the graph. 0 resolves to
     * streams + 64.
     */
    u32 max_streams = 0;
    /** Encoder / decoder engine counts (execution permits). */
    u32 encode_engines = 4;
    u32 decode_engines = 4;
    /** Worker threads per stage; 0 resolves to the engine count. */
    u32 capture_workers = 2;
    u32 encode_workers = 0;
    u32 decode_workers = 0;
    /** Max frames per batched DRAM/DMA submission (store worker). */
    u32 store_batch_max = 8;
    /**
     * EDF deadlines: frame n of a stream is due at epoch + (n+1)/fps.
     * Off = queues degrade to fair round-robin and no miss accounting
     * (the byte-identity configuration).
     */
    bool use_deadlines = true;
    /**
     * Scene for (stream, frame). Required. Called from worker threads —
     * must be thread-safe; pure functions of (id, frame) are ideal.
     */
    std::function<Image(u32 stream_id, u64 frame)> scene_source;
    /**
     * Region labels programmed into a stream at creation; null programs
     * one full-frame label. Called once per stream.
     */
    std::function<std::vector<RegionLabel>(u32 stream_id)> label_source;
    /**
     * Per-stream config hook, run before the StreamContext is built (the
     * stream_label has already been set to "s<id>"). May adjust fps,
     * fault plan, etc. for individual streams.
     */
    std::function<void(u32 stream_id, PipelineConfig &)> configure;
    /**
     * Vision-stage sink invoked with every completed frame, from decode
     * worker threads (possibly concurrently for different streams).
     */
    VisionStage::FrameSink frame_sink;
    /**
     * Invoked after a stream leaves the fleet — it completed its frame
     * target, was removed and its in-flight frame finished, or was
     * removed before ever being seeded. Called outside fleet locks from
     * the retiring thread, and always *after* the stream's last frame
     * has been fully accounted (journal + ledger), so conservation
     * checks from this hook are exact for the departed stream. The hook
     * may call addStream() to replace the departed stream (soak churn
     * does); the fleet re-checks the shutdown condition after the hook
     * returns so a replacement is never strangled by queue closure.
     */
    std::function<void(const FleetStreamReport &)> stream_retired;
    /**
     * Overload-protection policy (admission control, watchdog, shedding,
     * health thresholds). Everything defaults off — a default GuardConfig
     * reproduces seed fleet behavior exactly.
     */
    guard::GuardConfig guard;
    /**
     * Fleet-level chaos injection (wall-clock perturbation only; model
     * output stays byte-identical). Default: disabled.
     */
    fault::ChaosConfig chaos;
};

/** Aggregate outcome of one FleetServer::run(), ledger sums first. */
struct FleetReport : FrameTotals {
    u32 streams_started = 0;
    u32 streams_completed = 0;
    // Guard layer outcome.
    u64 admission_rejects = 0;
    u64 watchdog_warns = 0;
    u64 watchdog_quarantines = 0;
    u64 watchdog_evictions = 0;
    u64 health_transitions = 0;
    u64 health_recoveries = 0;
    // Chaos injection outcome (wall-clock only).
    u64 chaos_hits = 0;
    u64 chaos_slept_us = 0;
    double kept_fraction_mean = 0.0;
    // Wall-clock (noisy on loaded hosts; model fields above are the
    // source of truth for regression gating).
    double wall_seconds = 0.0;
    double frames_per_second = 0.0;
    double latency_p50_us = 0.0;
    double latency_p99_us = 0.0;
    double latency_p999_us = 0.0;
    // Batched DMA submission.
    u64 store_batches = 0;
    u64 max_store_batch = 0;
    double mean_store_batch = 0.0;
    // Engine and queue pressure.
    EnginePoolStats encode_engines;
    EnginePoolStats decode_engines;
    StageQueueStats capture_queue;
    StageQueueStats store_queue;
    StageQueueStats encode_queue;
    StageQueueStats decode_queue;
    std::vector<FleetStreamReport> streams;
};

/** Serialize a FleetReport as pretty-printed JSON ("rpx-fleet-report-v1"). */
std::string toJson(const FleetReport &report);

/**
 * The fleet server. Construct, optionally add/remove streams, then call
 * run() exactly once; it blocks until every active stream completed its
 * frame target and returns the aggregate report. addStream()/
 * removeStream() are thread-safe and may be called while run() is in
 * flight (the join/leave tests do).
 */
class FleetServer
{
  public:
    explicit FleetServer(const FleetConfig &config);
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /**
     * Create one more stream (thread-safe). Before run() it is seeded at
     * start; during run() its first frame is submitted immediately.
     * Throws if admission is refused (fleet drained, max_streams reached,
     * or the capacity model rejects the load).
     */
    u32 addStream();

    /**
     * Admission-controlled variant of addStream (thread-safe): applies
     * the configured admission policy and returns a reject-with-reason
     * result instead of throwing. On admission, `result.id` names the
     * new stream. Rejections are counted in the fleet report.
     */
    guard::AdmissionResult tryAddStream();

    /**
     * Stop a stream after its in-flight frame completes (thread-safe).
     * Returns false if the id is unknown or the stream already finished.
     * The departing stream's last frame still lands in journal totals:
     * retirement (and the stream_retired hook) happen only after that
     * frame's completion accounting.
     */
    bool removeStream(u32 id);

    /**
     * Ask every stream to stop after its in-flight frame completes
     * (thread-safe). A run() in flight then drains and returns normally;
     * streams short of their frame target report completed=false. The
     * soak harness uses this to abort on an invariant violation without
     * abandoning in-flight accounting.
     */
    void drain();

    /** Drive all streams to completion. Call once. */
    FleetReport run();

    /**
     * Introspection for tests; valid between construction and dtor.
     * Returns null for unknown ids and for retired streams (their
     * context is released at retirement to bound fleet memory under
     * join/leave churn).
     */
    StreamContext *stream(u32 id);
    u32 activeStreams() const;

    /**
     * The ledger: every stream's frame totals, live and retired, summed
     * under the fleet mutex (thread-safe, callable during run()). A
     * frame is journaled before it is counted here, so totals read
     * before TelemetrySink::totals() never lead the journal's. run()
     * publishes the pipeline.* outcome metrics from it as it returns.
     */
    FrameTotals totals() const;

  private:
    struct StreamEntry {
        std::unique_ptr<StreamContext> ctx; //!< released at retirement
        std::string label; //!< outlives ctx for reports after retirement
        u64 target = 0;
        FrameTotals totals;
        int degradation_level = 0; //!< ladder level after the last frame
        bool active = true;    //!< still scheduled for more frames
        bool seeded = false;   //!< first frame has entered the graph
        bool finished = false; //!< left the fleet (completed or removed)
        std::chrono::steady_clock::time_point epoch;
        double period_us = 0.0;
        // Guard state.
        guard::HealthMachine health;
        u64 watchdog_warns = 0;
        bool evicted = false; //!< watchdog verdict: removed from fleet
        /** Submission time of the in-flight frame (watchdog age base). */
        std::chrono::steady_clock::time_point inflight_since;
        bool wd_warned = false;      //!< this in-flight frame already warned
        bool wd_quarantined = false; //!< ... already counted a quarantine
    };

    u32 addStreamLocked();
    /** Admission verdict for one more stream; caller holds mutex_. */
    guard::AdmissionResult admitLocked() const;
    void seedStream(StreamEntry &entry, u32 id);
    FrameTask makeTask(StreamEntry &entry, u32 id, u64 frame);
    /**
     * Count a frame that left the graph in its stream's totals and health
     * machine, then submit the stream's next frame or retire it.
     */
    void finishFrame(FrameTask &task, bool errored);
    /**
     * Close the capture queue once no stream is live and no retire hook
     * runs; caller holds mutex_. The worker shutdown cascade follows.
     */
    void closeIfDrainedLocked();
    /** Count one frame outcome for a stream; caller holds mutex_. */
    void countFrameLocked(StreamEntry &entry, const PipelineFrameResult &r,
                          bool errored);
    /**
     * Shed a frame the guard decided not to decode: serve the
     * hold-last-good image and account it through accountFrame(), the
     * same path decoded frames take, with decoded = false. The caller then
     * routes the task through finishFrame as a normal completion — shed
     * is first-class, not an error.
     * @param stored true when the frame passed the store stage (decode-
     *               point shed); false at the encode-point shed.
     */
    void shedFrame(FrameTask &task, bool stored);
    /** True when the shedder should drop this task before its lease. */
    bool pastShedDeadline(const FrameTask &task) const;
    void watchdogLoop();
    /** Retire under mutex_: finished, live_--, context released. */
    FleetStreamReport retireLocked(u32 id, StreamEntry &entry);
    FleetStreamReport streamReportLocked(u32 id,
                                         const StreamEntry &entry) const;
    FrameTotals totalsLocked() const;

    void captureLoop();
    void encodeLoop();
    void storeLoop();
    void decodeLoop();

    template <typename Stage>
    bool runStage(const Stage &stage, FrameTask &task);

    FleetConfig config_;
    std::unique_ptr<PipelineObs> obs_;
    std::unique_ptr<fault::ChaosInjector> chaos_; //!< null when disabled

    // Sized to max_streams: one frame in flight per live stream.
    StageQueue capture_q_;
    StageQueue encode_q_;
    StageQueue store_q_;
    StageQueue decode_q_;
    EnginePool encode_engines_;
    EnginePool decode_engines_;

    CaptureStage capture_;
    EncodeStage encode_;
    StoreStage store_;
    DecodeStage decode_;
    VisionStage vision_;

    mutable std::mutex mutex_; //!< streams map + frame/guard accounting
    std::map<u32, StreamEntry> streams_;
    u32 next_id_ = 0;
    u32 live_ = 0;        //!< unfinished streams
    u32 retire_hooks_running_ = 0; //!< stream_retired calls in progress
    bool running_ = false;
    bool ran_ = false;

    // Guard aggregates (guarded by mutex_ except the thread-safe
    // histogram). Frame outcomes live in the per-stream totals, which
    // outlive retirement for the report.
    u64 admission_rejects_ = 0;
    u64 watchdog_warns_ = 0;
    u64 watchdog_quarantines_ = 0;
    u64 watchdog_evictions_ = 0;
    /** EWMA of measured encode engine-hold µs (admission cost model). */
    double encode_hold_ewma_us_ = 0.0;
    obs::Histogram latency_;

    // Store-worker batching stats (single-threaded writer).
    u64 store_batches_ = 0;
    u64 store_batch_frames_ = 0;
    u64 max_store_batch_ = 0;

    // Shutdown cascade: the last worker leaving a stage closes the next
    // stage's queue.
    std::atomic<int> capture_alive_{0};
    std::atomic<int> encode_alive_{0};
    std::atomic<int> decode_alive_{0};

    // Per-stage progress heartbeats (bumped on every worker loop pass);
    // the watchdog flags a stage whose queue is non-empty while its
    // beats stand still.
    std::atomic<u64> beat_capture_{0};
    std::atomic<u64> beat_encode_{0};
    std::atomic<u64> beat_store_{0};
    std::atomic<u64> beat_decode_{0};
};

} // namespace rpx::fleet

#endif // RPX_FLEET_FLEET_HPP
