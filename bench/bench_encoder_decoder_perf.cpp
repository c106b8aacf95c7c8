/**
 * @file
 * §6.3 microbenchmarks — "Encoder/decoder are performant":
 *  - encoder wall-clock throughput and modelled pixel-clock compliance
 *    (the IP must sustain 2 pixels per clock);
 *  - hardware-decoder transaction service (modelled latency is tens of
 *    ns; wall-clock here measures the simulator);
 *  - software decoder: a few ms for a 1080p frame, scaling linearly with
 *    the fraction of regional pixels.
 *
 * After the microbenchmarks, a short deterministic end-to-end pipeline
 * section (telemetry attached) contributes the model-kind headline
 * metrics — DRAM traffic ratio vs dense, energy per frame — so the trend
 * store gates on numbers that do not move with CI runner load.
 *
 * `--out-dir DIR` (default build/bench_out; stripped before
 * google-benchmark sees argv) selects where BENCH_encoder_decoder.json,
 * the headline BenchReport for trend_compare, lands.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/frame_store.hpp"
#include "core/sw_decoder.hpp"
#include "frame/draw.hpp"
#include "isp/isp_pipeline.hpp"
#include "memory/dram.hpp"
#include "obs/bench_report.hpp"
#include "obs/perf_registry.hpp"
#include "obs/telemetry.hpp"
#include "sensor/sensor.hpp"
#include "sim/pipeline.hpp"

namespace rpx {
namespace {

Image
noiseFrame(i32 w, i32 h)
{
    Image img(w, h);
    Rng rng(99);
    fillValueNoise(img, rng, 24.0, 10, 240);
    return img;
}

std::vector<RegionLabel>
scatterRegions(int count, i32 w, i32 h, u64 seed)
{
    Rng rng(seed);
    std::vector<RegionLabel> regions;
    for (int i = 0; i < count; ++i) {
        regions.push_back({static_cast<i32>(rng.uniformInt(0, w - 40)),
                           static_cast<i32>(rng.uniformInt(0, h - 40)),
                           32, 32, static_cast<i32>(rng.uniformInt(1, 4)),
                           static_cast<i32>(rng.uniformInt(1, 3)), 0});
    }
    sortRegionsByY(regions);
    return regions;
}

/** Encoder throughput on a 1080p frame with `regions` labels. */
void
BM_EncoderHybrid1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    const Image frame = noiseFrame(w, h);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(
        scatterRegions(static_cast<int>(state.range(0)), w, h, 5));

    FrameIndex t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(enc.encodeFrame(frame, t++));
    }
    state.counters["Mpixel/s"] = benchmark::Counter(
        static_cast<double>(enc.stats().pixels_in) / 1e6,
        benchmark::Counter::kIsRate);
    // 1 B/px input: frame bytes consumed per second of encode.
    state.counters["MB/s"] = benchmark::Counter(
        static_cast<double>(enc.stats().pixels_in) / 1e6,
        benchmark::Counter::kIsRate);
    state.counters["meets_2ppc"] = enc.withinCycleBudget() ? 1 : 0;
    state.counters["comparisons/frame"] =
        static_cast<double>(enc.stats().region_comparisons) /
        static_cast<double>(enc.stats().frames);
}
BENCHMARK(BM_EncoderHybrid1080p)->Arg(10)->Arg(100)->Arg(400)->Arg(973);

/** Full-frame (dense) encode, the worst-case pixel payload. */
void
BM_EncoderFullFrame(benchmark::State &state)
{
    const i32 w = static_cast<i32>(state.range(0));
    const i32 h = w * 9 / 16;
    const Image frame = noiseFrame(w, h);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels({fullFrameRegion(w, h)});
    FrameIndex t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(enc.encodeFrame(frame, t++));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(w) * h);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(w) * h);
}
BENCHMARK(BM_EncoderFullFrame)->Arg(640)->Arg(1280)->Arg(1920);

/**
 * SLAM-like labels: `count` overlapping feature regions (sides 24–128,
 * the feature policy's octave strides 1–4 and skips 1–3) on a w x h
 * frame, y-sorted.
 */
std::vector<RegionLabel>
slamRegions(i64 count, i32 w, i32 h)
{
    Rng rng(11);
    std::vector<RegionLabel> regions;
    for (i64 i = 0; i < count; ++i) {
        const i32 side = static_cast<i32>(rng.uniformInt(24, 128));
        RegionLabel r{static_cast<i32>(rng.uniformInt(0, w - 24)),
                      static_cast<i32>(rng.uniformInt(0, h - 24)),
                      side, side,
                      static_cast<i32>(rng.uniformInt(1, 4)),
                      static_cast<i32>(rng.uniformInt(1, 3)), 0};
        r.w = std::min(r.w, w - r.x);
        r.h = std::min(r.h, h - r.y);
        regions.push_back(r);
    }
    sortRegionsByY(regions);
    return regions;
}

/**
 * The foveated 1080p layout: a 480x272 stride-1 fovea over a stride-4,
 * skip-2 periphery, y-sorted.
 */
std::vector<RegionLabel>
foveatedLabels(i32 w, i32 h)
{
    std::vector<RegionLabel> labels = {{0, 0, w, h, 4, 2, 0},
                                       {720, 404, 480, 272, 1, 1, 0}};
    sortRegionsByY(labels);
    return labels;
}

/**
 * SLAM-like encode: 450 overlapping feature regions (sides 24–128, the
 * feature policy's octave strides 1–4 and skips 1–3) on a 640x480
 * frame, with per-region attribution on as under telemetry. Plan and
 * write both run per frame (the rhythm changes the plan every frame).
 */
void
BM_EncoderStridedOverlap640x480(benchmark::State &state)
{
    const i32 w = 640, h = 480;
    const Image frame = noiseFrame(w, h);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(slamRegions(state.range(0), w, h));
    enc.enableRegionAttribution(true);
    FrameIndex t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(enc.encodeFrame(frame, t++));
    state.counters["ns/px"] = benchmark::Counter(
        static_cast<double>(enc.stats().pixels_in),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["kept_frac"] =
        static_cast<double>(enc.stats().pixels_encoded) /
        static_cast<double>(enc.stats().pixels_in);
}
BENCHMARK(BM_EncoderStridedOverlap640x480)->Arg(450)
    ->Unit(benchmark::kMillisecond);

/**
 * The capture-side ISP of the foveated 1080p layout (stride-1 480x272
 * fovea over a stride-4, skip-2 periphery): gray output at the frame
 * plan's kept pixels only, on a frame that samples the periphery.
 */
void
BM_IspGrayFoveated1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    Image raw(w, h, PixelFormat::BayerRggb);
    Rng rng(3);
    for (u8 &v : raw.data())
        v = static_cast<u8>(rng.uniformInt(0, 255));
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(foveatedLabels(w, h));
    const KeptRunPlan &plan = enc.planFrame(0);
    IspPipeline isp;
    Image gray;
    for (auto _ : state) {
        isp.processKept(raw, plan, gray);
        benchmark::DoNotOptimize(gray.data().data());
        benchmark::ClobberMemory();
    }
    state.counters["kept_frac"] = static_cast<double>(plan.kept()) /
                                  (static_cast<double>(w) * h);
}
BENCHMARK(BM_IspGrayFoveated1080p)->Unit(benchmark::kMillisecond);

/**
 * The sensor readout of the same layout: an RGB scene mosaicked into the
 * sensor's reused raw buffer, densely (arg 0) or only on the rows the
 * kept-pixel ISP reads (arg 1; frame 0 samples the periphery, frame 1
 * keeps only the fovea).
 */
void
BM_SensorCaptureFoveated1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    Image scene(w, h, PixelFormat::Rgb8);
    Rng rng(5);
    for (u8 &v : scene.data())
        v = static_cast<u8>(rng.uniformInt(0, 255));
    SensorConfig sc = sensorPreset1080p();
    SensorModel sensor(sc);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(foveatedLabels(w, h));
    const bool planned = state.range(0) != 0;
    FrameIndex t = 0;
    for (auto _ : state) {
        const KeptRunPlan *plan = planned ? &enc.planFrame(t++) : nullptr;
        benchmark::DoNotOptimize(sensor.capture(scene, plan).data().data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SensorCaptureFoveated1080p)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Hardware decoder: row-transaction service over a region workload. */
void
BM_DecoderRowTransactions(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    DramModel dram;
    RhythmicEncoder enc(w, h);
    FrameStore store(dram, w, h);
    RhythmicDecoder decoder(store);
    enc.setRegionLabels(
        scatterRegions(static_cast<int>(state.range(0)), w, h, 7));
    const Image frame = noiseFrame(w, h);
    for (FrameIndex t = 0; t < 4; ++t)
        store.store(enc.encodeFrame(frame, t));

    i32 y = 0;
    std::vector<u8> row;
    for (auto _ : state) {
        decoder.requestPixelsInto(0, y, w, row);
        benchmark::DoNotOptimize(row.data());
        y = (y + 17) % h;
    }
    state.SetItemsProcessed(state.iterations() * w);
    state.SetBytesProcessed(state.iterations() * w);
    state.counters["modelled_ns/txn"] = decoder.avgLatencyNs();
    state.counters["model_px/cycle"] =
        static_cast<double>(decoder.stats().pixels_requested) /
        static_cast<double>(decoder.stats().cycles);
}
BENCHMARK(BM_DecoderRowTransactions)->Arg(100)->Arg(400);

/**
 * Software decoder at 1080p: §6.3 claims a few ms per frame at ~30%
 * regional pixels, scaling linearly with the regional fraction. The Arg
 * is the percentage of the frame covered by regions.
 */
void
BM_SoftwareDecoder1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    const double frac = static_cast<double>(state.range(0)) / 100.0;
    const i32 side = static_cast<i32>(
        std::sqrt(frac * static_cast<double>(w) * h));
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels({{0, 0, std::min(side, w), std::min(side, h),
                          1, 1, 0}});
    const EncodedFrame encoded = enc.encodeFrame(noiseFrame(w, h), 0);
    const SoftwareDecoder sw;
    Image out;
    for (auto _ : state) {
        sw.decodeInto(encoded, {}, out);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<i64>(w) * h);
    state.counters["regional%"] = 100.0 * encoded.keptFraction();
}
BENCHMARK(BM_SoftwareDecoder1080p)->Arg(10)->Arg(30)->Arg(60)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/**
 * Software decode of frames[cur] with the four frames before it as
 * history, most recent first; reports the share of pixels history
 * filled.
 */
void
runSwDecodeWithHistory(benchmark::State &state,
                       const std::vector<EncodedFrame> &frames, size_t cur)
{
    const std::vector<const EncodedFrame *> history = {
        &frames[cur - 1], &frames[cur - 2], &frames[cur - 3],
        &frames[cur - 4]};
    const EncodedFrame &current = frames[cur];
    const SoftwareDecoder sw;
    Image out;
    for (auto _ : state) {
        sw.decodeInto(current, history, out);
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    const i64 px = static_cast<i64>(current.width) * current.height;
    state.SetBytesProcessed(state.iterations() * px);
    state.counters["history%"] =
        100.0 * static_cast<double>(sw.lastHistoryFills()) /
        static_cast<double>(px);
}

/** Frames t = 0 .. count - 1 of `frame` encoded under `labels`. */
std::vector<EncodedFrame>
encodeFrames(const std::vector<RegionLabel> &labels, const Image &frame,
             FrameIndex count)
{
    RhythmicEncoder enc(frame.width(), frame.height());
    enc.setRegionLabels(labels);
    std::vector<EncodedFrame> frames;
    for (FrameIndex t = 0; t < count; ++t)
        frames.push_back(enc.encodeFrame(frame, t));
    return frames;
}

/**
 * Software decoder on the paper's foveated layout at 1080p, decoding a
 * frame whose periphery is skipped (t = 5) with 4 frames of history.
 * Most pixels come from St upscans and history fills, the cases the
 * 30%-regional case above (stride-1 R pixels only) never reaches.
 */
void
BM_SoftwareDecoderFoveated1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    runSwDecodeWithHistory(
        state, encodeFrames(foveatedLabels(w, h), noiseFrame(w, h), 6), 5);
}
BENCHMARK(BM_SoftwareDecoderFoveated1080p)->Unit(benchmark::kMillisecond);

/**
 * The other foveated frame mode, which hd workloads alternate with the
 * skipped one: t = 4 samples the periphery, so its R rows and St upscans
 * resolve in the current frame, with history t = 3 .. 0.
 */
void
BM_SoftwareDecoderFoveatedSampled1080p(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    runSwDecodeWithHistory(
        state, encodeFrames(foveatedLabels(w, h), noiseFrame(w, h), 5), 4);
}
BENCHMARK(BM_SoftwareDecoderFoveatedSampled1080p)
    ->Unit(benchmark::kMillisecond);

/**
 * The foveated layout as a stream decodes it: frames alternate between
 * sampling the periphery (even t) and skipping it (odd t), each decoded
 * through the stream's DecodedFrameCache over the three frames before it,
 * as DecodeStage does. One iteration is one frame; the odd frames refresh
 * only the fovea rows. Frame t is a copy of frame t mod 2 re-indexed to t
 * (the layout repeats every two frames), pushed into a FrameStore-like
 * window outside the timed region.
 */
void
BM_SoftwareDecoderFoveated1080pSequence(benchmark::State &state)
{
    const i32 w = 1920, h = 1080;
    const std::vector<EncodedFrame> pattern =
        encodeFrames(foveatedLabels(w, h), noiseFrame(w, h), 2);
    std::deque<EncodedFrame> window; // newest first, stable addresses
    std::vector<const EncodedFrame *> history;
    const SoftwareDecoder sw;
    DecodedFrameCache cache;
    u64 history_read = 0;
    FrameIndex t = 0;
    for (auto _ : state) {
        state.PauseTiming();
        window.push_front(pattern[static_cast<size_t>(t % 2)]);
        window.front().index = t++;
        if (window.size() > 4)
            window.pop_back();
        history.clear();
        for (size_t k = 1; k < window.size(); ++k)
            history.push_back(&window[k]);
        state.ResumeTiming();
        sw.decodeInto(window.front(), history, cache);
        benchmark::DoNotOptimize(cache.image().data().data());
        benchmark::ClobberMemory();
        history_read += sw.lastHistoryBytesRead();
    }
    state.SetBytesProcessed(state.iterations() * static_cast<i64>(w) * h);
    state.counters["history_read_B/frame"] =
        static_cast<double>(history_read) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_SoftwareDecoderFoveated1080pSequence)
    ->Unit(benchmark::kMillisecond);

/**
 * SLAM-like decode: the 450 overlapping strided regions of
 * BM_EncoderStridedOverlap640x480 at t = 5, with history t = 4 .. 1 —
 * short R runs on nearly every row, the R-dense case.
 */
void
BM_SoftwareDecoderStridedOverlap640x480(benchmark::State &state)
{
    const i32 w = 640, h = 480;
    runSwDecodeWithHistory(
        state, encodeFrames(slamRegions(state.range(0), w, h),
                            noiseFrame(w, h), 6),
        5);
}
BENCHMARK(BM_SoftwareDecoderStridedOverlap640x480)->Arg(450)
    ->Unit(benchmark::kMillisecond);

/**
 * Console reporter that also mirrors every run into a PerfRegistry so
 * the results land in a machine-readable snapshot next to the console
 * table (BENCH_encoder_decoder.json, consumed by regression tooling).
 */
class RegistryReporter : public benchmark::ConsoleReporter
{
  public:
    explicit RegistryReporter(obs::PerfRegistry &registry)
        : registry_(registry)
    {
    }

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string base = "bench." + run.benchmark_name();
            const double iters = static_cast<double>(run.iterations);
            registry_.gauge(base + ".real_time_ns")
                .set(run.real_accumulated_time / iters * 1e9);
            registry_.gauge(base + ".cpu_time_ns")
                .set(run.cpu_accumulated_time / iters * 1e9);
            registry_.gauge(base + ".iterations").set(iters);
            for (const auto &[name, counter] : run.counters)
                registry_.gauge(base + "." + name).set(counter.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    obs::PerfRegistry &registry_;
};

/**
 * Deterministic end-to-end section for the trend store: a short 320x240
 * rhythmic sequence (moving stride-1 foreground over a coarse rhythmic
 * periphery) through the full pipeline with telemetry attached. Traffic,
 * kept fraction, and energy come from the deterministic models and gate
 * tightly ("model" kind); the p99 frame latency is wall-clock and only
 * warns ("wall" kind).
 */
void
addPipelineTrendMetrics(obs::BenchReport &report,
                        obs::PerfRegistry &registry)
{
    constexpr i32 w = 320, h = 240;
    constexpr int frames = 48;

    obs::TelemetrySink sink;
    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.telemetry = &sink;
    VisionPipeline pipeline(pc);

    const Image base = noiseFrame(w, h);
    for (int t = 0; t < frames; ++t) {
        const i32 bx = (t * 5) % (w - 48);
        const i32 by = (t * 3) % (h - 36);
        Image scene = base;
        for (i32 y = by; y < by + 36; ++y)
            for (i32 x = bx; x < bx + 48; ++x)
                scene.set(x, y, 235);
        pipeline.runtime().setRegionLabels({
            {std::max<i32>(0, bx - 4), std::max<i32>(0, by - 4), 56, 44,
             1, 1, 0},
            {0, 0, w, h, 4, 2, 0}, // coarse periphery
        });
        pipeline.processFrame(scene);
    }

    obs::Histogram &lat =
        registry.histogram("pipeline.frame.latency_us");
    for (const obs::FrameTelemetry &f : sink.frames())
        lat.record(f.total_us);

    const obs::TelemetryTotals totals = sink.totals();
    const double dense_bytes =
        2.0 * frames * static_cast<double>(w) * h; // write + read, 1 B/px
    const double traffic_bytes =
        static_cast<double>(totals.bytes_written + totals.bytes_read +
                            totals.metadata_bytes);
    const double fn = static_cast<double>(totals.frames);
    registry.gauge("pipeline.dram_traffic_ratio")
        .set(traffic_bytes / dense_bytes);
    registry.gauge("pipeline.energy_per_frame_uj")
        .set(totals.energy_total_nj / fn / 1e3);

    report.setMetric("pipeline_dram_traffic_ratio", traffic_bytes / dense_bytes, "ratio", "lower",
                      "model");
    report.setMetric("pipeline_energy_per_frame_uj", totals.energy_total_nj / fn / 1e3, "uJ", "lower",
                      "model");
    report.setMetric("pipeline_kept_fraction", static_cast<double>(totals.pixels_kept) /
                          static_cast<double>(totals.pixels_in),
                      "ratio", "lower", "model");
    report.setMetric("pipeline_p99_latency_us", lat.quantile(0.99), "us", "lower", "wall");
}

/**
 * Deterministic encoder work model at 1080p. Not pulled from the
 * benchmark gauges on purpose: those average over however many
 * iterations the timer chose, and the labels' skip rhythms make
 * per-frame work periodic — the mean shifts with iteration count, i.e.
 * with machine speed. Encoding exactly one full rhythm period (skips
 * are 1..3, lcm 6) gives a phase-independent number that gates tightly.
 */
void
addEncoderModelTrendMetrics(obs::BenchReport &report)
{
    const i32 w = 1920, h = 1080;
    const Image frame = noiseFrame(w, h);
    constexpr FrameIndex period = 6;

    RhythmicEncoder enc400(w, h);
    enc400.setRegionLabels(scatterRegions(400, w, h, 5));
    RhythmicEncoder enc973(w, h);
    enc973.setRegionLabels(scatterRegions(973, w, h, 5));
    for (FrameIndex t = 0; t < period; ++t) {
        enc400.encodeFrame(frame, t);
        enc973.encodeFrame(frame, t);
    }
    report.setMetric("encoder_comparisons_per_frame_400",
                     static_cast<double>(
                         enc400.stats().region_comparisons) /
                         static_cast<double>(period),
                     "comparisons", "lower", "model");
    report.setMetric("encoder_meets_2ppc_973",
                     enc973.withinCycleBudget() ? 1.0 : 0.0, "bool",
                     "higher", "model");
}

/**
 * Deterministic decoder work model at 1080p: full-row transactions over a
 * 400-region store, measured in decoded pixels per modelled cycle (the
 * decoder's cycle model is fixed transaction latency + one cycle per
 * coalesced burst, so the number is machine-independent and gates
 * tightly). Reported twice: with the legacy exact coalescer
 * (burst_gap_bytes = 0, the "before" row-transaction service) and with
 * an 8-byte gap-tolerant coalescer (the "after": reading through small
 * mask holes trades wasted beats for fewer burst issues).
 */
void
addDecoderModelTrendMetrics(obs::BenchReport &report)
{
    const i32 w = 1920, h = 1080;
    DramModel dram;
    RhythmicEncoder enc(w, h);
    FrameStore store(dram, w, h);
    enc.setRegionLabels(scatterRegions(400, w, h, 7));
    const Image frame = noiseFrame(w, h);
    for (FrameIndex t = 0; t < 4; ++t)
        store.store(enc.encodeFrame(frame, t));

    const auto pixelsPerCycle = [&](u32 gap_bytes) {
        RhythmicDecoder::Config dc;
        dc.burst_gap_bytes = gap_bytes;
        RhythmicDecoder dec(store, dc);
        std::vector<u8> row;
        for (i32 y = 0; y < h; ++y)
            dec.requestPixelsInto(0, y, w, row);
        return static_cast<double>(dec.stats().pixels_requested) /
               static_cast<double>(dec.stats().cycles);
    };
    report.setMetric("decoder_pixels_per_cycle_row_txn",
                     pixelsPerCycle(0), "px/cycle", "higher", "model");
    report.setMetric("decoder_pixels_per_cycle", pixelsPerCycle(8),
                     "px/cycle", "higher", "model");
}

/** Wall-clock headline metrics from the microbenchmark gauges (if run). */
void
addMicrobenchTrendMetrics(obs::BenchReport &report,
                          const obs::PerfRegistry &registry)
{
    const std::vector<obs::MetricSample> samples = registry.snapshot();
    double v = 0.0;
    // Useful trend signal, too noisy to gate (warn-only "wall" kind).
    if (benchutil::findGauge(samples, "BM_EncoderHybrid1080p/400",
                             ".Mpixel/s", v))
        report.setMetric("encoder_mpixel_s_400", v, "Mpixel/s", "higher",
                         "wall");
    if (benchutil::findGauge(samples, "BM_SoftwareDecoder1080p/30",
                             ".real_time_ns", v))
        report.setMetric("sw_decode_ms_30pct", v / 1e6, "ms", "lower",
                         "wall");
    if (benchutil::findGauge(samples, "BM_SoftwareDecoderFoveated1080p",
                             ".real_time_ns", v))
        report.setMetric("sw_decode_ms_foveated", v / 1e6, "ms", "lower",
                         "wall");
    if (benchutil::findGauge(samples,
                             "BM_SoftwareDecoderFoveatedSampled1080p",
                             ".real_time_ns", v))
        report.setMetric("sw_decode_ms_foveated_sampled", v / 1e6, "ms",
                         "lower", "wall");
    if (benchutil::findGauge(samples,
                             "BM_SoftwareDecoderFoveated1080pSequence",
                             ".real_time_ns", v))
        report.setMetric("sw_decode_ms_foveated_sequence", v / 1e6, "ms",
                         "lower", "wall");
    if (benchutil::findGauge(samples,
                             "BM_SoftwareDecoderStridedOverlap640x480/450",
                             ".real_time_ns", v))
        report.setMetric("sw_decode_ms_strided_450", v / 1e6, "ms",
                         "lower", "wall");
}

} // namespace
} // namespace rpx

int
main(int argc, char **argv)
{
    const std::string out_dir = rpx::benchutil::consumeOutDir(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    rpx::obs::PerfRegistry registry;
    rpx::RegistryReporter reporter(registry);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    rpx::obs::BenchReport report;
    report.bench = "encoder_decoder";
    report.commit = rpx::obs::benchCommitFromEnv();
    rpx::addPipelineTrendMetrics(report, registry);
    rpx::addEncoderModelTrendMetrics(report);
    rpx::addDecoderModelTrendMetrics(report);
    rpx::addMicrobenchTrendMetrics(report, registry);

    const std::string report_path =
        rpx::obs::benchReportPath(out_dir, "encoder_decoder");
    rpx::obs::writeBenchReportFile(report, report_path);
    std::cout << "\nWrote " << report_path << "\n";
    return 0;
}
