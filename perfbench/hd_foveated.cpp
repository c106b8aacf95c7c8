/**
 * @file
 * Workload hd_foveated: one 1920x1080 stream through
 * VisionPipeline::processFrame, closed loop, no deadlines. RGB scenes go
 * through the Bayer sensor model, CSI-2 and the ISP; the labels are a
 * stride-1 fovea over a stride-4, skip-2 periphery.
 *
 * The run is a sequence of passes. Each pass builds a fresh pipeline
 * (one set-up sample) and pushes the same kPassFrames scenes through it,
 * so every complete pass must decode bit-identical frames.
 */

#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/telemetry.hpp"
#include "sim/pipeline.hpp"

namespace perfbench {

namespace {

constexpr i32 kWidth = 1920;
constexpr i32 kHeight = 1080;
constexpr i32 kFoveaW = 480;
constexpr i32 kFoveaH = 272;
constexpr int kScenes = 5;
constexpr int kPassFrames = 10;

struct Inputs {
    std::vector<rpx::Image> scenes;
    std::vector<rpx::RegionLabel> labels;
};

Inputs
makeInputs(u64 seed)
{
    Inputs in;
    for (int k = 0; k < kScenes; ++k)
        in.scenes.push_back(makeRgbScene(seed, static_cast<u64>(k), kWidth,
                                         kHeight));
    // The fovea sits on the periphery's 4-pixel grid, so its position
    // (seeded) never changes how many pixels are kept.
    rpx::Rng rng(seed);
    const i32 fx = static_cast<i32>(
        4 * rng.uniformInt(0, (kWidth - kFoveaW) / 4));
    const i32 fy = static_cast<i32>(
        4 * rng.uniformInt(0, (kHeight - kFoveaH) / 4));
    in.labels = fovealLabels(kWidth, kHeight, fx, fy, kFoveaW, kFoveaH);
    return in;
}

rpx::PipelineConfig
pipelineConfig()
{
    rpx::PipelineConfig pc;
    pc.width = kWidth;
    pc.height = kHeight;
    pc.use_sensor_path = true;
    return pc;
}

/**
 * What one pass produced. The probe is read between timed samples, and
 * the samples are stored at the reference host speed.
 */
struct Pass {
    double setup_s = 0.0;
    std::vector<double> latency_ms; //!< processFrame (or its stages)
    SampleScaler scale;
    double wall_ms = 0.0; //!< unscaled sum of latency_ms
    FrameLedger ledger;

    void addFrame(double ms)
    {
        latency_ms.push_back(ms / scale.next());
        wall_ms += ms;
    }
    void setSetup(double secs) { setup_s = secs / scale.next(); }
    double fps() const
    {
        double ms = 0.0;
        for (double v : latency_ms)
            ms += v;
        return 1e3 * static_cast<double>(latency_ms.size()) / ms;
    }
};

constexpr u64 kPixels = static_cast<u64>(kWidth) * kHeight;

/** One pass through the public facade (untraced). */
Pass
runPass(const Inputs &in)
{
    Pass pass;
    const auto t0 = Clock::now();
    rpx::VisionPipeline pipeline(pipelineConfig());
    pipeline.runtime().setRegionLabels(in.labels);
    pass.setSetup(secondsBetween(t0, Clock::now()));
    for (int i = 0; i < kPassFrames; ++i) {
        const auto a = Clock::now();
        const rpx::PipelineFrameResult r =
            pipeline.processFrame(in.scenes[i % kScenes]);
        pass.addFrame(msBetween(a, Clock::now()));
        pass.ledger.add(r, kPixels);
    }
    return pass;
}

/**
 * One traced pass: the same frames through the stage objects with a
 * span per stage, plus the telemetry journal for the sensor/ISP split
 * inside the capture stage.
 */
Pass
runTracedPass(const Inputs &in, SpanRecorder &spans, i64 &frame_id,
              LayerStats &acc)
{
    Pass pass;
    rpx::obs::TelemetrySink::Config tc;
    tc.keep_frames = kPassFrames;
    rpx::obs::TelemetrySink sink(tc);
    rpx::PipelineConfig pc = pipelineConfig();
    pc.telemetry = &sink;

    const auto t0 = Clock::now();
    rpx::VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(in.labels);
    const auto t1 = Clock::now();
    spans.record("setup", t0, t1, frame_id);
    pass.setSetup(secondsBetween(t0, t1));
    rpx::fleet::StreamContext &ctx = pipeline.streamContext();
    for (int i = 0; i < kPassFrames; ++i, ++frame_id) {
        const auto a = Clock::now();
        const rpx::PipelineFrameResult r = runStagesTraced(
            ctx, in.scenes[i % kScenes], spans, frame_id);
        const auto b = Clock::now();
        spans.record("frame", a, b, frame_id);
        pass.addFrame(msBetween(a, b));
        pass.ledger.add(r, kPixels);
        pass.ledger.addLayerCounts(ctx);
    }
    for (const rpx::obs::FrameTelemetry &ft : sink.frames()) {
        acc.sensor_capture_ms += ft.sensor_us / 1e3;
        acc.isp_process_ms += ft.isp_us / 1e3;
        acc.dram_write_txn_per_frame +=
            static_cast<double>(ft.dram_write_transactions);
    }
    acc.regions_per_frame += pass.ledger.regions;
    acc.history_fill_frac += pass.ledger.history_fills;
    acc.kept_frac += pass.ledger.kept;
    return pass;
}

/** Cross-pass determinism: every pass must repeat the first one. */
void
checkPasses(const std::vector<Pass> &passes, Result &out)
{
    const FrameLedger &ref = passes.front().ledger;
    out.check("crc32", hex32(foldCrcs(ref.crcs)));
    out.check("model_totals", ref.totals());
    for (const Pass &p : passes) {
        out.attempted += p.ledger.frames();
        out.failed += p.ledger.failed;
        if (p.ledger.crcs != ref.crcs)
            out.problem("decoded frames differ between passes");
        if (p.ledger.totals() != ref.totals())
            out.problem("model totals differ between passes");
    }
}

} // namespace

void
runHdFoveated(const Options &opt, Result &out)
{
    const Inputs in = makeInputs(opt.seed);
    const auto start = Clock::now();
    const double untraced_budget =
        opt.trace ? opt.seconds / 2 : opt.seconds;

    std::vector<Pass> passes;
    do {
        passes.push_back(runPass(in));
    } while (secondsBetween(start, Clock::now()) < untraced_budget);

    std::vector<double> setup, fps, slowdown;
    double untraced_frames = 0.0, wall_ms = 0.0;
    for (const Pass &p : passes) {
        setup.push_back(p.setup_s);
        fps.push_back(p.fps());
        slowdown.insert(slowdown.end(), p.scale.readings().begin(),
                        p.scale.readings().end());
        untraced_frames += static_cast<double>(p.latency_ms.size());
        wall_ms += p.wall_ms;
    }

    if (!opt.trace) {
        checkPasses(passes, out);
        EndToEnd e;
        e.setup_s = median(setup);
        e.frames_per_s = median(fps);
        e.goodput_fps = e.frames_per_s; // no deadlines: every frame is on time
        e.slowdown = std::move(slowdown);
        e.wall_frames_per_s = 1e3 * untraced_frames / wall_ms;
        e.latency_ms.emplace_back();
        for (const Pass &p : passes)
            e.latency_ms[0].insert(e.latency_ms[0].end(),
                                   p.latency_ms.begin(), p.latency_ms.end());
        // Every pass has the same model totals (checked above).
        const FrameLedger &first = passes.front().ledger;
        e.dram_bytes_per_frame =
            static_cast<double>(first.dramBytes()) / first.frames();
        e.energy_uj_per_frame = first.energy_uj / first.frames();
        emitEndToEnd(out, e);
        return;
    }

    SpanRecorder spans(true);
    LayerStats l;
    l.untraced_fps = median(fps);
    std::vector<Pass> traced;
    std::vector<double> traced_fps;
    i64 frame_id = 0;
    do {
        traced.push_back(runTracedPass(in, spans, frame_id, l));
        traced_fps.push_back(traced.back().fps());
        slowdown.insert(slowdown.end(),
                        traced.back().scale.readings().begin(),
                        traced.back().scale.readings().end());
    } while (secondsBetween(start, Clock::now()) < opt.seconds);
    l.traced_fps = median(traced_fps);
    l.host_slowdown = median(slowdown);

    std::vector<Pass> all = passes;
    all.insert(all.end(), traced.begin(), traced.end());
    checkPasses(all, out);

    const double frames = static_cast<double>(frame_id);
    const double px = static_cast<double>(kPixels);
    l.sensor_capture_ms /= frames;
    l.isp_process_ms /= frames;
    l.dram_write_txn_per_frame /= frames;
    l.regions_per_frame /= frames;
    l.history_fill_frac /= frames * px;
    l.kept_frac /= frames;
    l.encode_ms = spans.totalMs("fleet.EncodeStage") / frames;
    l.encode_ns_per_px = l.encode_ms * 1e6 / px;
    l.store_ms = spans.totalMs("fleet.StoreStage") / frames;
    l.decode_ms = spans.totalMs("fleet.DecodeStage") / frames;
    l.error_frac = static_cast<double>(out.failed) / out.attempted;
    emitLayers(out, l);
    if (!opt.trace_out.empty())
        spans.writeChromeTrace(opt.trace_out);
}

} // namespace perfbench
