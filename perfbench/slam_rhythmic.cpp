/**
 * @file
 * Workload slam_rhythmic: the paper's V-SLAM loop on the 640x480
 * synthetic sequence, built from the same public calls runSlamWorkload
 * makes (RP capture at cycle length 10, feature policy, map refresh
 * every 15 frames). The tracker's features feed ~450 small regions per
 * frame back into the encoder.
 *
 * Set-up renders the whole sequence. A pass runs the sequence once on a
 * fresh pipeline, tracker and policies; the first pass always completes
 * (it yields the ATE), later passes run until the time budget is spent
 * and must repeat the first pass frame for frame.
 *
 * The inputs are the fixed synthetic sequence, so the seed does not
 * change them and the ATE is the same on every run.
 */

#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "obs/telemetry.hpp"
#include "policy/cycle_policy.hpp"
#include "policy/feature_policy.hpp"
#include "sim/pipeline.hpp"
#include "sim/workload.hpp"
#include "vision/orb.hpp"
#include "vision/slam.hpp"

namespace perfbench {

namespace {

constexpr int kCycleLength = 10;
constexpr int kMapRefresh = 15;
constexpr int kSetups = 3;

struct Sequence {
    std::unique_ptr<rpx::SlamSequence> seq;
    std::vector<rpx::Image> frames;
    std::vector<rpx::Vec3> landmarks;
};

/** Set-up: build the sequence and render every frame of it. */
Sequence
buildSequence(SpanRecorder &spans)
{
    Sequence s;
    s.seq = std::make_unique<rpx::SlamSequence>(rpx::SlamSequenceConfig{});
    s.landmarks = s.seq->landmarkPositions();
    for (int t = 0; t < s.seq->frames(); ++t) {
        ScopedSpan span(spans, "datasets.renderFrame", t, 7);
        s.frames.push_back(s.seq->renderFrame(t));
    }
    return s;
}

/**
 * Per-frame record of one pass. The probe is read between frames, and
 * their times are stored at the reference host speed.
 */
struct Pass {
    std::vector<double> latency_ms; //!< processFrame (or its stages)
    std::vector<double> frame_s;    //!< whole loop iteration per frame
    SampleScaler scale;
    double wall_s = 0.0; //!< unscaled sum of frame_s
    std::vector<rpx::Pose> estimated;
    FrameLedger ledger;

    void addFrame(double ms, Clock::time_point frame_start)
    {
        const double secs = secondsBetween(frame_start, Clock::now());
        const double s = scale.next();
        latency_ms.push_back(ms / s);
        frame_s.push_back(secs / s);
        wall_s += secs;
    }
};

/**
 * Run frames [0, n) of the sequence, stopping early once `deadline` has
 * passed (when `stop_early`). Traced passes drive the stage objects with
 * a span per layer call and attach a telemetry journal.
 */
Pass
runPass(const Sequence &s, SpanRecorder &spans, bool stop_early,
        Clock::time_point deadline, LayerStats *layers)
{
    const bool traced = spans.enabled();
    const rpx::SlamSequence &seq = *s.seq;
    const i32 w = seq.config().width;
    const i32 h = seq.config().height;

    rpx::obs::TelemetrySink::Config tc;
    tc.keep_frames = static_cast<size_t>(seq.frames());
    rpx::obs::TelemetrySink sink(tc);
    rpx::PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    if (traced)
        pc.telemetry = &sink;
    rpx::VisionPipeline pipeline(pc);
    rpx::fleet::StreamContext &ctx = pipeline.streamContext();

    rpx::SlamConfig sc;
    sc.camera = seq.camera();
    rpx::SlamTracker tracker(sc);
    rpx::CyclePolicy cycle(w, h, kCycleLength);
    rpx::FeaturePolicy feature_policy(w, h);

    Pass pass;
    for (int t = 0; t < seq.frames(); ++t) {
        if (stop_early && Clock::now() >= deadline)
            break;
        const auto frame_start = Clock::now();
        {
            ScopedSpan span(spans, "policy.CyclePolicy.regionsFor", t, 5);
            pipeline.runtime().setRegionLabels(cycle.regionsFor(t));
        }
        const auto a = Clock::now();
        const rpx::PipelineFrameResult frame =
            traced ? runStagesTraced(ctx, s.frames[t], spans, t)
                   : pipeline.processFrame(s.frames[t]);
        const double latency_ms = msBetween(a, Clock::now());
        pass.ledger.add(frame, static_cast<u64>(w) * h);
        if (traced)
            pass.ledger.addLayerCounts(ctx);

        if (t == 0) {
            // Bootstrap from the first (full) capture with ground truth,
            // as runSlamWorkload does.
            {
                ScopedSpan span(spans, "vision.SlamTracker.buildMap", t, 6);
                tracker.buildMap(frame.decoded, seq.groundTruth()[0],
                                 s.landmarks);
            }
            pass.estimated.push_back(seq.groundTruth()[0]);
            std::vector<rpx::OrbFeature> features;
            {
                ScopedSpan span(spans, "vision.detectOrb", t, 6);
                features = rpx::detectOrb(frame.decoded, sc.orb);
            }
            {
                ScopedSpan span(spans, "policy.FeaturePolicy.update", t, 5);
                feature_policy.observe(features);
                cycle.setTrackedRegions(
                    feature_policy.regionsForNextFrame());
            }
            pass.addFrame(latency_ms, frame_start);
            continue;
        }

        rpx::TrackResult tr;
        {
            ScopedSpan span(spans, "vision.SlamTracker.track", t, 6);
            tr = tracker.track(frame.decoded);
        }
        pass.estimated.push_back(tr.pose);
        if (tr.tracked && t % kMapRefresh == 0) {
            ScopedSpan span(spans, "vision.SlamTracker.buildMap", t, 6);
            tracker.buildMap(frame.decoded, tr.pose, s.landmarks);
        }
        {
            ScopedSpan span(spans, "policy.FeaturePolicy.update", t, 5);
            feature_policy.observe(tr.features);
            // Tracking lost: fall back to full captures until recovery.
            cycle.setTrackedRegions(
                tr.tracked ? feature_policy.regionsForNextFrame()
                           : std::vector<rpx::RegionLabel>{});
        }
        pass.addFrame(latency_ms, frame_start);
    }
    if (layers)
        for (const rpx::obs::FrameTelemetry &ft : sink.frames()) {
            layers->sensor_capture_ms += ft.sensor_us / 1e3;
            layers->isp_process_ms += ft.isp_us / 1e3;
            layers->dram_write_txn_per_frame +=
                static_cast<double>(ft.dram_write_transactions);
        }
    return pass;
}

double
sum(const std::vector<double> &v, size_t n)
{
    double s = 0.0;
    for (size_t i = 0; i < n && i < v.size(); ++i)
        s += v[i];
    return s;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

void
runSlamRhythmic(const Options &opt, Result &out)
{
    SpanRecorder spans(opt.trace);
    SpanRecorder untraced_spans(false);

    // Set-up, several times; the last sequence is the one that runs.
    std::vector<double> setup;
    SampleScaler setup_scale;
    Sequence s;
    for (int k = 0; k < kSetups; ++k) {
        const auto a = Clock::now();
        s = buildSequence(spans);
        const double secs = secondsBetween(a, Clock::now());
        setup.push_back(secs / setup_scale.next());
    }
    std::vector<double> slowdown = setup_scale.readings();

    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    LayerStats l;
    // The first pass always completes: it yields the ATE.
    std::vector<Pass> passes;
    passes.push_back(
        runPass(s, spans, false, deadline, opt.trace ? &l : nullptr));
    while (Clock::now() < deadline)
        passes.push_back(
            runPass(s, untraced_spans, true, deadline, nullptr));

    const FrameLedger &first = passes.front().ledger;
    const rpx::TrajectoryMetrics tm = rpx::computeTrajectoryMetrics(
        s.seq->groundTruth(), passes.front().estimated);
    out.check("crc32", hex32(foldCrcs(first.crcs)));
    out.check("model_totals", first.totals());
    out.check("ate_rmse_m", fmt(tm.ate_rmse));
    double wall_s = 0.0;
    for (const Pass &p : passes) {
        slowdown.insert(slowdown.end(), p.scale.readings().begin(),
                        p.scale.readings().end());
        wall_s += p.wall_s;
        const FrameLedger &pl = p.ledger;
        out.attempted += pl.frames();
        out.failed += pl.failed;
        if (!std::equal(pl.crcs.begin(), pl.crcs.end(), first.crcs.begin()))
            out.problem("decoded frames differ between passes");
        if (pl.frames() == first.frames() && pl.totals() != first.totals())
            out.problem("model totals differ between passes");
    }

    if (!opt.trace) {
        EndToEnd e;
        e.setup_s = median(setup);
        double loop_s = 0.0;
        std::vector<double> latency_ms;
        for (const Pass &p : passes) {
            loop_s += sum(p.frame_s, p.frame_s.size());
            latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                              p.latency_ms.end());
        }
        const double frames = static_cast<double>(latency_ms.size());
        e.frames_per_s = frames / loop_s;
        e.goodput_fps = e.frames_per_s; // no deadlines: every frame is on time
        e.wall_frames_per_s = frames / wall_s;
        e.latency_ms.push_back(std::move(latency_ms));
        e.slowdown = std::move(slowdown);
        // Model metrics over the complete first pass, so they repeat
        // exactly whatever the time budget.
        e.dram_bytes_per_frame =
            static_cast<double>(first.dramBytes()) / first.frames();
        e.energy_uj_per_frame =
            first.energy_uj / static_cast<double>(first.frames());
        emitEndToEnd(out, e);
        out.info["ate_rmse_mm"] = tm.ate_rmse * 1e3;
        return;
    }

    // Traced: the first pass ran with spans; the untraced passes after it
    // repeat a prefix of the same frames, which gives the overhead.
    const double n = static_cast<double>(first.frames());
    const double px = static_cast<double>(s.seq->config().width) *
                      s.seq->config().height;
    size_t covered = 0;
    double untraced_s = 0.0, traced_s = 0.0;
    for (size_t i = 1; i < passes.size(); ++i) {
        const size_t k = passes[i].frame_s.size();
        covered += k;
        untraced_s += sum(passes[i].frame_s, k);
        traced_s += sum(passes.front().frame_s, k);
    }
    if (covered > 0) {
        l.untraced_fps = static_cast<double>(covered) / untraced_s;
        l.traced_fps = static_cast<double>(covered) / traced_s;
    }
    l.sensor_capture_ms /= n;
    l.isp_process_ms /= n;
    l.dram_write_txn_per_frame /= n;
    l.encode_ms = spans.totalMs("fleet.EncodeStage") / n;
    l.encode_ns_per_px = l.encode_ms * 1e6 / px;
    l.regions_per_frame = first.regions / n;
    l.decode_ms = spans.totalMs("fleet.DecodeStage") / n;
    l.history_fill_frac = first.history_fills / (n * px);
    l.kept_frac = first.kept / n;
    l.store_ms = spans.totalMs("fleet.StoreStage") / n;
    l.track_ms = (spans.totalMs("vision.SlamTracker.track") +
                  spans.totalMs("vision.SlamTracker.buildMap") +
                  spans.totalMs("vision.detectOrb")) /
                 n;
    l.policy_update_ms = (spans.totalMs("policy.FeaturePolicy.update") +
                          spans.totalMs("policy.CyclePolicy.regionsFor")) /
                         n;
    l.render_ms = spans.totalMs("datasets.renderFrame") /
                  static_cast<double>(spans.count("datasets.renderFrame"));
    l.ate_rmse_mm = tm.ate_rmse * 1e3;
    l.host_slowdown = median(slowdown);
    l.error_frac = static_cast<double>(out.failed) / out.attempted;
    emitLayers(out, l);
    if (!opt.trace_out.empty())
        spans.writeChromeTrace(opt.trace_out);
}

} // namespace perfbench
