/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options, the
 * result record every workload fills, percentiles, a span recorder that
 * writes a Chrome trace, and the seeded scene generators.
 *
 * A workload measures for `--seconds` of wall-clock time and records:
 *  - metrics: named values with units (end-to-end or per-layer);
 *  - checks: exact output fingerprints (CRC-32 of decoded frames, model
 *    totals, ATE) that the runner compares against the recorded
 *    references;
 *  - problems: every invariant the workload found broken. Any problem
 *    fails the run.
 */

#ifndef RPX_PERFBENCH_HARNESS_HPP
#define RPX_PERFBENCH_HARNESS_HPP

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "core/region.hpp"
#include "energy/energy_model.hpp"
#include "fleet/stages.hpp"
#include "frame/image.hpp"

namespace perfbench {

using rpx::i32;
using rpx::i64;
using rpx::u32;
using rpx::u64;
using rpx::u8;
using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Host-speed probe. The benchmark runs on a few cores of a shared host,
 * where other tenants' work slows the same computation by up to 2x for
 * seconds at a time: an identical 1080p frame takes 65-170 ms within one
 * run, with thread CPU time equal to wall time, so the core runs slower
 * rather than the thread waiting. Whole-run medians then differ by up to
 * 50% from run to run.
 *
 * The probe is a fixed cache-resident kernel (probeMs in harness.cpp)
 * that shares nothing with the program under test. A workload reads it
 * next to each timed sample and divides the sample's time by the
 * probe's slowdown: its thread CPU time over kProbeReferenceMs, its time
 * on an uncontended core of the 4-vCPU Xeon VM the benchmark was tuned
 * on. End-to-end times are thus stated at the reference host speed. A
 * change to the program moves a scaled time by the same share as the
 * raw time, since the probe's work does not change with it.
 */
constexpr double kProbeReferenceMs = 0.5;

/**
 * Median slowdown of 3 back-to-back probe runs. The median drops the
 * first run when the work before it left the caches cold.
 */
double hostSlowdown();

/**
 * Probe readings around consecutive timed samples on one thread: each
 * sample is scaled by the mean of the readings just before and just
 * after it. The first reading is taken on construction.
 */
class SampleScaler
{
  public:
    SampleScaler() : last_(hostSlowdown()) { readings_.push_back(last_); }

    /** Reads the probe; returns the slowdown of the sample just ended. */
    double
    next()
    {
        const double now = hostSlowdown();
        readings_.push_back(now);
        const double s = (last_ + now) / 2.0;
        last_ = now;
        return s;
    }

    const std::vector<double> &readings() const { return readings_; }

  private:
    double last_;
    std::vector<double> readings_;
};

/**
 * Reads the probe on its own thread every `period` until stop(): the
 * host speed during work that runs on threads the benchmark does not
 * own (the fleet's workers). A reading is thread CPU time, so time the
 * sampler waits for a core does not count; one reading every 50 ms
 * takes about 3% of one core.
 */
class ProbeSampler
{
  public:
    explicit ProbeSampler(std::chrono::milliseconds period);
    ~ProbeSampler() { stop(); }
    ProbeSampler(const ProbeSampler &) = delete;
    ProbeSampler &operator=(const ProbeSampler &) = delete;

    /** Stops sampling (idempotent); returns the median reading. */
    double stop();

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::vector<double> readings_;
    std::thread thread_;
};

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome-trace output of a traced run (empty: not written). */
    std::string trace_out;
};

/** Everything one run reports back to the runner. */
struct Result {
    u64 attempted = 0; //!< frames attempted
    u64 failed = 0;    //!< frames that errored or were quarantined
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> checks;
    /** Context the runner prints beside the metrics (sample counts). */
    std::map<std::string, double> info;
    std::vector<std::string> problems;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
    void check(const std::string &name, const std::string &value)
    {
        checks[name] = value;
    }
    void problem(const std::string &what) { problems.push_back(what); }

    /** The record as one JSON line. */
    std::string toJson() const;
};

/**
 * The end-to-end metrics every untraced run reports (BENCHMARK.json
 * `end_to_end`). Latencies run from a frame's release to its delivery.
 * Times and rates are at the reference host speed (see hostSlowdown).
 */
struct EndToEnd {
    double setup_s = 0.0;        //!< median set-up time
    double frames_per_s = 0.0;   //!< frames completed per second
    double goodput_fps = 0.0;    //!< fresh frames delivered on time / s
    /**
     * One sample per frame, in groups of identical work (one group per
     * fleet round; a single group on hd and slam). Each percentile is
     * the median over groups of the group's percentile.
     */
    std::vector<std::vector<double>> latency_ms;
    double dram_bytes_per_frame = 0.0;
    double energy_uj_per_frame = 0.0;
    /** Context: every probe reading of the run, and unscaled fps. */
    std::vector<double> slowdown;
    double wall_frames_per_s = 0.0;
};

void emitEndToEnd(Result &out, const EndToEnd &e2e);

/**
 * The per-layer metrics every traced run reports (BENCHMARK.json
 * `per_layer`); a layer the workload bypasses reads 0.
 */
struct LayerStats {
    double sensor_capture_ms = 0.0;
    double isp_process_ms = 0.0;
    double encode_ms = 0.0;
    double encode_ns_per_px = 0.0;
    double regions_per_frame = 0.0;
    double decode_ms = 0.0;
    double history_fill_frac = 0.0;
    double kept_frac = 0.0;
    double dram_write_txn_per_frame = 0.0;
    double store_ms = 0.0;
    double track_ms = 0.0;
    double policy_update_ms = 0.0;
    double render_ms = 0.0;
    double ate_rmse_mm = 0.0;
    double serial_fps = 0.0;
    double service_ms_p50 = 0.0;
    double wait_ms_p50 = 0.0;
    double encode_lease_wait_frac = 0.0;
    double decode_lease_wait_frac = 0.0;
    double store_batch_mean = 0.0;
    double submit_lag_ms_p50 = 0.0;
    double latency_p99_ms = 0.0;
    double goodput_fps = 0.0; //!< overload probe: fresh on-time frames/s
    double shed_frac = 0.0;
    double late_served_frac = 0.0;
    double degradation_level_mean = 0.0;
    double error_frac = 0.0;
    /** frames_per_s of the untraced and traced parts of the run. */
    double untraced_fps = 0.0;
    double traced_fps = 0.0;
    /** Median probe reading of the run (hostSlowdown). */
    double host_slowdown = 0.0;
};

void emitLayers(Result &out, const LayerStats &layers);

/**
 * Harrell-Davis estimate of the p-th percentile (0 < p < 100): a
 * Beta-weighted average of the order statistics. 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

double mean(const std::vector<double> &values);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Hex text of a 32-bit fingerprint. */
std::string hex32(u32 v);

/**
 * Order-sensitive fold of per-frame CRCs into one fingerprint (CRC-32 of
 * the little-endian CRC sequence).
 */
u32 foldCrcs(const std::vector<u32> &crcs);

/** CRC-32 of an image's pixel bytes. */
u32 imageCrc(const rpx::Image &img);

/**
 * Model energy of one frame in microjoules: every input pixel is sensed
 * and crosses CSI-2; every kept pixel is written to DRAM and read back.
 */
double frameEnergyUj(u64 pixels_in, u64 pixels_written, u64 pixels_read);

/**
 * Seeded synthetic scenes: smooth gradients plus random rectangles and
 * per-pixel noise, so every frame carries distinct content. Pure
 * functions of (seed, index).
 */
rpx::Image makeGrayScene(u64 seed, u64 index, i32 w, i32 h);
rpx::Image makeRgbScene(u64 seed, u64 index, i32 w, i32 h);

/**
 * The benchmark's foveation pattern: a stride-1 fovea at (fx, fy) over a
 * stride-4, skip-2 periphery covering the whole frame.
 */
std::vector<rpx::RegionLabel> fovealLabels(i32 w, i32 h, i32 fx, i32 fy,
                                           i32 fw, i32 fh);

/**
 * Spans recorded by the benchmark around its calls into each layer,
 * kept in memory and written as a Chrome trace at the end. Thread-safe.
 * Also keeps per-name totals so a workload can turn spans into
 * per-layer metrics.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record one finished span. `frame` groups spans of one frame. */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, i64 frame, u32 lane = 0);

    /** Total milliseconds and count recorded under `name`. */
    double totalMs(const std::string &name) const;
    u64 count(const std::string &name) const;

    /** Write every span as a Chrome trace (traceEvents array). */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        double ts_us;
        double dur_us;
        i64 frame;
        u32 lane;
    };
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, std::pair<double, u64>> totals_;
};

/** RAII span: records [construction, destruction) when enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, i64 frame,
               u32 lane = 0)
        : rec_(rec), name_(name), frame_(frame), lane_(lane),
          start_(rec.enabled() ? Clock::now() : Clock::time_point{})
    {
    }
    ~ScopedSpan()
    {
        if (rec_.enabled())
            rec_.record(name_, start_, Clock::now(), frame_, lane_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    const char *name_;
    i64 frame_;
    u32 lane_;
    Clock::time_point start_;
};

/** Account of the frames of one single-stream pass. */
struct FrameLedger {
    std::vector<u32> crcs; //!< CRC-32 of each decoded frame
    u64 failed = 0;        //!< quarantined frames
    u64 bytes_written = 0;
    u64 bytes_read = 0;
    u64 metadata_bytes = 0;
    double energy_uj = 0.0;
    double kept = 0.0;          //!< sum of kept fractions
    double regions = 0.0;       //!< sum of programmed labels (traced)
    double history_fills = 0.0; //!< sum of decoder history fills (traced)

    void add(const rpx::PipelineFrameResult &r, u64 pixels_in);
    /** Layer counts the stream exposes after its latest frame. */
    void addLayerCounts(rpx::fleet::StreamContext &ctx);
    size_t frames() const { return crcs.size(); }
    u64 dramBytes() const
    {
        return bytes_written + bytes_read + metadata_bytes;
    }
    /** The exact model totals, as compared with the reference. */
    std::string totals() const;
};

/**
 * One frame through the stage objects on `ctx`, with a span around each
 * stage — the traced equivalent of VisionPipeline::processFrame (which
 * runs the same four stages inline).
 */
rpx::PipelineFrameResult runStagesTraced(rpx::fleet::StreamContext &ctx,
                                         const rpx::Image &scene,
                                         SpanRecorder &spans, i64 frame);

/** Workload entry points (one per workload name). */
void runHdFoveated(const Options &opt, Result &out);
void runSlamRhythmic(const Options &opt, Result &out);
void runFleetManySmall(const Options &opt, Result &out);

} // namespace perfbench

#endif // RPX_PERFBENCH_HARNESS_HPP
