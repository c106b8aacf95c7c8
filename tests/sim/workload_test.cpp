/** @file Integration tests for the three evaluation workloads. */

#include <gtest/gtest.h>

#include "sim/experiments.hpp"
#include "sim/workload.hpp"

namespace rpx {
namespace {

SlamSequenceConfig
tinySlam()
{
    SlamSequenceConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    cfg.frames = 12;
    cfg.landmarks = 150;
    cfg.motion_amplitude = 0.3;
    return cfg;
}

TEST(SlamWorkload, RhythmicTracksWithReducedTraffic)
{
    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const SlamRunResult rp_run = runSlamWorkload(tinySlam(), rp);

    WorkloadConfig fch;
    fch.scheme = CaptureScheme::FCH;
    const SlamRunResult fch_run = runSlamWorkload(tinySlam(), fch);

    EXPECT_EQ(rp_run.scheme_name, "RP5");
    EXPECT_EQ(rp_run.trace.size(), 12u);
    EXPECT_GT(rp_run.tracked_fraction, 0.7);

    // Traffic shrinks, error grows only moderately.
    EXPECT_LT(rp_run.pipeline_traffic.bytes_written,
              fch_run.pipeline_traffic.bytes_written);
    EXPECT_LT(rp_run.metrics.ate_mean, 0.6);
    EXPECT_LE(fch_run.metrics.ate_mean, rp_run.metrics.ate_mean + 0.05);

    // Kept fraction: full on cycle frames, partial between.
    EXPECT_DOUBLE_EQ(rp_run.kept_per_frame[0], 1.0);
    EXPECT_LT(rp_run.kept_per_frame[2], 1.0);
}

TEST(SlamWorkload, TraceFeedsThroughputSimulator)
{
    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const SlamRunResult run = runSlamWorkload(tinySlam(), rp);

    ThroughputConfig tc;
    tc.width = 320;
    tc.height = 240;
    const ThroughputSimulator sim(tc);
    const auto rp_result = sim.evaluate(CaptureScheme::RP, run.trace);
    const auto fch_result = sim.evaluate(CaptureScheme::FCH, run.trace);
    EXPECT_LT(rp_result.throughput_mbps, fch_result.throughput_mbps);
    EXPECT_LT(rp_result.kept_fraction, 1.0);
}

/**
 * Differential check of the traffic model against the functional
 * pipeline: replaying the run's own RP trace through ThroughputSimulator
 * at the run's geometry must reproduce the DRAM traffic the pipeline
 * measured, byte for byte. This pins 1 B/px: the pipeline stores 8-bit
 * gray pixels, whereas the simulator's default (2 B/px) models a
 * YUYV-class format. Metadata (mask + offsets) does not scale with
 * bytes/px.
 */
TEST(SlamWorkload, SimulatorWriteTrafficMatchesPipelineAtOneBytePerPixel)
{
    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const SlamRunResult run = runSlamWorkload(tinySlam(), rp);

    ThroughputConfig tc;
    tc.width = run.width;
    tc.height = run.height;
    tc.bytes_per_pixel = 1.0;
    const ThroughputSimulator sim(tc);
    const TrafficSummary model =
        sim.evaluate(CaptureScheme::RP, run.trace).traffic;
    const TrafficSummary &measured = run.pipeline_traffic;
    ASSERT_EQ(measured.frames, 12u);
    EXPECT_EQ(model.frames, measured.frames);
    EXPECT_EQ(model.bytes_written, measured.bytes_written);
    EXPECT_EQ(model.bytes_read, measured.bytes_read);
    EXPECT_EQ(model.metadata_bytes, measured.metadata_bytes);
}

TEST(FaceWorkload, DetectsWithRegions)
{
    FaceSequenceConfig seq;
    seq.width = 400;
    seq.height = 300;
    seq.frames = 15;
    seq.subjects = 2;

    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const DetectionRunResult run = runFaceWorkload(seq, rp);
    EXPECT_GT(run.map_percent, 50.0);
    EXPECT_EQ(run.trace.size(), 15u);
    EXPECT_EQ(run.width, 400);
}

TEST(PoseWorkload, EstimatesWithRegions)
{
    PoseSequenceConfig seq;
    seq.width = 480;
    seq.height = 360;
    seq.frames = 15;
    seq.persons = 1;

    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const DetectionRunResult run = runPoseWorkload(seq, rp);
    EXPECT_GT(run.map_percent, 40.0);
    EXPECT_GT(run.recall_percent, 40.0);
}

TEST(SlamWorkload, MotionVectorPolicyTracks)
{
    WorkloadConfig wc;
    wc.scheme = CaptureScheme::RP;
    wc.cycle_length = 5;
    wc.region_policy = RegionPolicyKind::MotionVector;
    const SlamRunResult run = runSlamWorkload(tinySlam(), wc);
    EXPECT_GT(run.tracked_fraction, 0.6);
    EXPECT_LT(run.metrics.ate_mean, 0.8);
    // Between full captures some pixels are discarded.
    bool any_partial = false;
    for (double k : run.kept_per_frame)
        any_partial |= k > 0.0 && k < 1.0;
    EXPECT_TRUE(any_partial);
}

TEST(Workload, MultiRoiDropsStrideAndSkip)
{
    WorkloadConfig roi;
    roi.scheme = CaptureScheme::MultiRoi;
    roi.cycle_length = 5;
    const SlamRunResult run = runSlamWorkload(tinySlam(), roi);
    for (const auto &labels : run.trace) {
        EXPECT_LE(labels.size(), 16u);
        for (const auto &r : labels) {
            EXPECT_EQ(r.stride, 1);
            EXPECT_EQ(r.skip, 1);
        }
    }
}

TEST(Workload, FclUsesStridedFullFrame)
{
    WorkloadConfig fcl;
    fcl.scheme = CaptureScheme::FCL;
    fcl.fcl_stride = 2;
    const SlamRunResult run = runSlamWorkload(tinySlam(), fcl);
    for (const auto &labels : run.trace) {
        ASSERT_EQ(labels.size(), 1u);
        EXPECT_EQ(labels[0].stride, 2);
    }
    for (double k : run.kept_per_frame)
        EXPECT_NEAR(k, 0.25, 0.01);
}

TEST(AnalyzeTrace, Table4StyleStats)
{
    RegionTrace trace;
    trace.push_back({fullFrameRegion(320, 240)}); // full capture: excluded
    trace.push_back({
        {0, 0, 30, 40, 2, 1, 0},
        {50, 50, 60, 70, 4, 3, 0},
    });
    trace.push_back({{10, 10, 20, 20, 1, 2, 0}});
    const RegionTraceStats stats = analyzeTrace(trace, 320, 240);
    EXPECT_DOUBLE_EQ(stats.avg_regions_per_frame, 1.5);
    EXPECT_EQ(stats.min_w, 20);
    EXPECT_EQ(stats.max_w, 60);
    EXPECT_EQ(stats.min_stride, 1);
    EXPECT_EQ(stats.max_stride, 4);
    EXPECT_EQ(stats.max_skip, 3);
}

TEST(EvalScale, ReadsEnvironment)
{
    setenv("RPX_BENCH_SCALE", "medium", 1);
    const EvalScale medium = evalScaleFromEnv();
    EXPECT_EQ(medium.slam_frames, 120);
    setenv("RPX_BENCH_SCALE", "full", 1);
    const EvalScale full = evalScaleFromEnv();
    EXPECT_GT(full.slam_width, medium.slam_width);
    setenv("RPX_BENCH_SCALE", "bogus", 1);
    EXPECT_THROW(evalScaleFromEnv(), std::invalid_argument);
    unsetenv("RPX_BENCH_SCALE");
    EXPECT_EQ(evalScaleFromEnv().slam_frames, 60);
}

TEST(SchemeNames, Printable)
{
    EXPECT_EQ(schemeName(CaptureScheme::FCH), "FCH");
    EXPECT_EQ(schemeName(CaptureScheme::RP), "RP");
    EXPECT_EQ(schemeName(CaptureScheme::RP, 15), "RP15");
    EXPECT_EQ(schemeName(CaptureScheme::H264), "H.264");
    EXPECT_EQ(schemeName(CaptureScheme::MultiRoi), "Multi-ROI");
}

TEST(TextTable, RendersAligned)
{
    TextTable table({"a", "bb"});
    table.addRow({"1", "2"});
    const std::string s = table.render();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("--"), std::string::npos);
    EXPECT_NE(s.find("1"), std::string::npos);
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}

} // namespace
} // namespace rpx
