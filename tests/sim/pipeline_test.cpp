/** @file Integration tests for the end-to-end vision pipeline. */

#include <gtest/gtest.h>

#include <deque>

#include "../core/reference_encode.hpp"
#include "../isp/reference_isp.hpp"
#include "common/rng.hpp"
#include "core/sw_decoder.hpp"
#include "fault/fault.hpp"
#include "frame/draw.hpp"
#include "frame/metrics.hpp"
#include "sensor/csi2.hpp"
#include "sensor/sensor.hpp"
#include "sim/pipeline.hpp"
#include "sim/report.hpp"

namespace rpx {
namespace {

Image
testScene(i32 w, i32 h, u64 seed)
{
    Image scene(w, h);
    Rng rng(seed);
    fillValueNoise(scene, rng, 30.0, 60, 180);
    return scene;
}

PipelineConfig
smallPipeline()
{
    PipelineConfig pc;
    pc.width = 96;
    pc.height = 64;
    return pc;
}

TEST(Pipeline, FullFrameDefaultIsLossless)
{
    VisionPipeline pipeline(smallPipeline());
    const Image scene = testScene(96, 64, 1);
    const auto result = pipeline.processFrame(scene);
    EXPECT_DOUBLE_EQ(result.kept_fraction, 1.0);
    EXPECT_EQ(result.decoded, scene);
}

TEST(Pipeline, RegionsReduceTrafficAndPreserveRegions)
{
    VisionPipeline pipeline(smallPipeline());
    pipeline.runtime().setRegionLabels({{10, 10, 40, 30, 1, 1, 0}});
    const Image scene = testScene(96, 64, 2);
    const auto result = pipeline.processFrame(scene);
    EXPECT_NEAR(result.kept_fraction, 40.0 * 30 / (96.0 * 64), 1e-9);
    // Region content exact; outside black.
    EXPECT_DOUBLE_EQ(mseInRect(scene, result.decoded,
                               Rect{10, 10, 40, 30}),
                     0.0);
    EXPECT_EQ(result.decoded.at(0, 0), 0);
    EXPECT_LT(result.traffic.bytes_written, 96u * 64u / 2u);
}

TEST(Pipeline, TemporalSkipServedFromHistory)
{
    VisionPipeline pipeline(smallPipeline());
    pipeline.runtime().setRegionLabels({{0, 0, 96, 64, 1, 2, 0}});
    const Image scene = testScene(96, 64, 3);
    const auto f0 = pipeline.processFrame(scene);
    const auto f1 = pipeline.processFrame(scene);
    EXPECT_DOUBLE_EQ(f0.kept_fraction, 1.0);
    EXPECT_DOUBLE_EQ(f1.kept_fraction, 0.0);
    // Skipped frame still decodes to the (static) scene.
    EXPECT_EQ(f1.decoded, scene);
}

/**
 * Measured decode reads on the hd_foveated layout (a stride-1 fovea over
 * a stride-4, skip-2 periphery at 1080p): once the stream's decoded-frame
 * cache is warm, a decode reads no history frame, and what it reads of
 * the current frame — payload, mask and row offsets — is exactly the
 * read side the traffic ledger books: bytes_read plus the one metadata
 * copy of the decode (traffic.metadata_bytes books the store's copy and
 * the decode's).
 */
TEST(Pipeline, HdFoveatedDecodeReadsOnlyTheLedgersBytes)
{
    PipelineConfig pc;
    pc.width = 1920;
    pc.height = 1080;
    VisionPipeline pipeline(pc);
    std::vector<RegionLabel> labels = {{0, 0, 1920, 1080, 4, 2, 0},
                                       {720, 404, 480, 272, 1, 1, 0}};
    sortRegionsByY(labels);
    pipeline.runtime().setRegionLabels(labels);
    const SoftwareDecoder &dec = pipeline.streamContext().swDecoder();
    for (int t = 0; t < 6; ++t) {
        const auto r = pipeline.processFrame(
            testScene(1920, 1080, 40 + static_cast<u64>(t)));
        const Bytes metadata = pipeline.frameStore().recent(0)->metadataBytes();
        EXPECT_EQ(r.traffic.metadata_bytes, 2 * metadata) << "t=" << t;
        EXPECT_EQ(dec.lastCurrentBytesRead(),
                  r.traffic.bytes_read + metadata)
            << "t=" << t;
        if (t > 0) {
            EXPECT_EQ(dec.lastHistoryBytesRead(), 0u) << "t=" << t;
        }
        EXPECT_EQ(dec.lastHistoryFills() > 0, t % 2 == 1) << "t=" << t;
    }
}

TEST(Pipeline, TrafficSummaryAccumulates)
{
    VisionPipeline pipeline(smallPipeline());
    const Image scene = testScene(96, 64, 4);
    pipeline.processFrame(scene);
    pipeline.processFrame(scene);
    EXPECT_EQ(pipeline.traffic().frames, 2u);
    EXPECT_EQ(pipeline.traffic().bytes_written, 2u * 96u * 64u);
    EXPECT_EQ(pipeline.frameIndex(), 2);
}

TEST(Pipeline, SensorPathProducesSimilarFrame)
{
    PipelineConfig pc = smallPipeline();
    pc.use_sensor_path = true;
    VisionPipeline pipeline(pc);
    const Image scene_gray = testScene(96, 64, 5);

    // RGB scene through Bayer mosaic + demosaic + gamma.
    Image scene_rgb(96, 64, PixelFormat::Rgb8);
    for (i32 y = 0; y < 64; ++y)
        for (i32 x = 0; x < 96; ++x)
            for (int c = 0; c < 3; ++c)
                scene_rgb.set(x, y, c, scene_gray.at(x, y));

    const auto result = pipeline.processFrame(scene_rgb);
    EXPECT_EQ(result.decoded.width(), 96);
    // Gamma brightens; structure is preserved (monotone map), so the
    // decoded frame correlates strongly with the scene.
    EXPECT_GT(ssimGlobal(result.decoded, scene_gray), 0.35);
    EXPECT_THROW(pipeline.processFrame(scene_gray),
                 std::invalid_argument);
}

/**
 * The sensor path computes the ISP only at the pixels the encoder keeps.
 * Over a CSI-2 link that corrupts bytes and drops lines, every stored
 * frame and every decoded frame is byte-identical to the dense chain:
 * the same sensor readout and link faults, the dense ISP, the reference
 * per-pixel encoder (under the labels the pipeline bound that frame) and
 * a software decode over the same history depth.
 */
TEST(Pipeline, SensorPathMatchesDenseReference)
{
    fault::FaultPlan plan;
    plan.seed = 99;
    plan.at(fault::Stage::Csi2).byte_error_rate = 2e-3;
    plan.at(fault::Stage::Csi2).drop_rate = 0.05;
    PipelineConfig pc = smallPipeline();
    pc.use_sensor_path = true;
    pc.fault.plan = &plan;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels({{0, 0, 96, 64, 3, 2, 0},
                                        {20, 10, 41, 29, 1, 1, 0},
                                        {50, 30, 46, 34, 2, 3, 1}});

    SensorConfig sc;
    sc.name = "sim";
    sc.width = pc.width;
    sc.height = pc.height;
    sc.fps = pc.fps;
    SensorModel sensor(sc);
    fault::FaultInjector injector(plan);
    Csi2Link csi;
    csi.setFaultInjector(&injector);
    const IspPipeline isp; // default gamma, as the pipeline's
    const SoftwareDecoder decoder;
    std::deque<EncodedFrame> history; // newest first

    u32 dropped = 0, corrupted = 0;
    for (FrameIndex t = 0; t < 6; ++t) {
        Image scene(96, 64, PixelFormat::Rgb8);
        Rng rng(500 + static_cast<u64>(t));
        fillValueNoise(scene, rng, 20.0, 30, 220);
        const PipelineFrameResult result = pipeline.processFrame(scene);

        Image raw = sensor.capture(scene);
        const Csi2FrameStatus link = csi.transferFrame(raw, pc.fps);
        dropped += link.dropped_lines;
        corrupted += link.corrupted_bytes;
        const Image gray = denseIspGray(raw, isp.config().gamma);
        const fleet::StreamContext &ctx = pipeline.streamContext();
        const ReferenceEncode ref =
            referenceEncode(ctx.encoder().regionLabels(),
                            ctx.encoder().config(), gray, t, false);

        const EncodedFrame &stored = *ctx.store().recent(0);
        ASSERT_EQ(stored.mask.bytes(), ref.frame.mask.bytes()) << t;
        ASSERT_EQ(stored.pixels, ref.frame.pixels) << t;
        ASSERT_EQ(stored.offsets, ref.frame.offsets) << t;

        std::vector<const EncodedFrame *> older;
        for (const EncodedFrame &f : history)
            older.push_back(&f);
        ASSERT_EQ(result.decoded, decoder.decode(ref.frame, older)) << t;
        history.push_front(ref.frame);
        if (history.size() + 1 > static_cast<size_t>(pc.history))
            history.pop_back();
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(corrupted, 0u);
}

TEST(Pipeline, DecoderRequestsWorkAgainstPipelineState)
{
    VisionPipeline pipeline(smallPipeline());
    const Image scene = testScene(96, 64, 6);
    pipeline.processFrame(scene);
    auto &decoder = pipeline.decoder();
    const auto row = decoder.requestPixels(0, 10, 96);
    for (i32 x = 0; x < 96; ++x)
        EXPECT_EQ(row[static_cast<size_t>(x)], scene.at(x, 10));
}

TEST(Pipeline, EncoderCycleBudgetHolds)
{
    VisionPipeline pipeline(smallPipeline());
    std::vector<RegionLabel> labels;
    for (int i = 0; i < 64; ++i)
        labels.push_back({(i * 13) % 80, (i * 29) % 48, 12, 12, 1, 1, 0});
    pipeline.runtime().setRegionLabels(labels);
    const Image scene = testScene(96, 64, 7);
    for (int t = 0; t < 3; ++t)
        pipeline.processFrame(scene);
    EXPECT_TRUE(pipeline.encoder().withinCycleBudget());
}

TEST(Pipeline, ReportContainsAllSections)
{
    VisionPipeline pipeline(smallPipeline());
    const Image scene = testScene(96, 64, 11);
    pipeline.processFrame(scene);
    pipeline.decoder().requestPixels(0, 0, 16);
    const std::string report = pipelineReport(pipeline);
    for (const char *key :
         {"frames.processed", "encoder.kept_fraction",
          "decoder.avg_latency_ns", "dram.bytes_written",
          "traffic.throughput_mbps", "csi.pixels_transferred",
          "energy.total_mj"}) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }
}

TEST(Pipeline, FootprintBoundedByHistory)
{
    VisionPipeline pipeline(smallPipeline());
    const Image scene = testScene(96, 64, 8);
    Bytes footprint = 0;
    for (int t = 0; t < 8; ++t)
        footprint = pipeline.processFrame(scene).traffic.footprint;
    // 4 retained full frames + metadata.
    const Bytes frame = 96u * 64u;
    EXPECT_GE(footprint, 4 * frame);
    EXPECT_LE(footprint, 4 * frame + 4 * (frame / 4 + 64 * 4 + 4096));
}

} // namespace
} // namespace rpx
