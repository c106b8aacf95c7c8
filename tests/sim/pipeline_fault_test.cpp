/**
 * @file
 * End-to-end resilience tests: fault injection through the full pipeline,
 * quarantine + hold-last-good on corrupt metadata, transient DMA retry,
 * and the deadline-miss degradation ladder.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "sim/pipeline.hpp"

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

TEST(PipelineFault, ResilienceMachineryOffByDefault)
{
    VisionPipeline pipeline(smallPipeline());
    EXPECT_EQ(pipeline.faultInjector(), nullptr);
    EXPECT_EQ(pipeline.degradation(), nullptr);
    EXPECT_FALSE(pipeline.frameStore().metadataCrcEnabled());

    const auto r = pipeline.processFrame(testScene(96, 64, 1));
    EXPECT_FALSE(r.deadline_missed);
    EXPECT_FALSE(r.quarantined);
    EXPECT_FALSE(r.held_last_good);
    EXPECT_EQ(r.degradation_level, 0);
    EXPECT_EQ(r.transient_faults, 0u);
}

TEST(PipelineFault, GracefulPathWithoutFaultsIsByteIdentical)
{
    // CRC + graceful decode enabled but no injector: every decoded frame
    // must match the plain pipeline bit for bit.
    VisionPipeline plain(smallPipeline());
    PipelineConfig rc = smallPipeline();
    rc.fault.crc_metadata = true;
    rc.fault.graceful = true;
    VisionPipeline resilient(rc);

    plain.runtime().setRegionLabels({{8, 8, 60, 40, 2, 2, 0}});
    resilient.runtime().setRegionLabels({{8, 8, 60, 40, 2, 2, 0}});

    for (int t = 0; t < 6; ++t) {
        const Image scene = testScene(96, 64, 10 + static_cast<u64>(t));
        const auto a = plain.processFrame(scene);
        const auto b = resilient.processFrame(scene);
        EXPECT_EQ(a.decoded, b.decoded) << "frame " << t;
        EXPECT_DOUBLE_EQ(a.kept_fraction, b.kept_fraction);
        EXPECT_FALSE(b.quarantined);
        EXPECT_FALSE(b.held_last_good);
        EXPECT_EQ(b.degradation_level, 0);
    }
}

TEST(PipelineFault, MetadataCorruptionQuarantinesAndHoldsLastGood)
{
    PipelineConfig pc = smallPipeline();
    fault::FaultPlan plan;
    plan.seed = 42;
    // ~1800 metadata bytes/frame at 96x64: this rate corrupts roughly a
    // third of the frames, leaving clean frames in between to hold.
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 2e-4;
    pc.fault.plan = &plan;
    pc.fault.crc_metadata = true;
    pc.fault.graceful = true;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels({{0, 0, 96, 64, 1, 1, 0}});

    int quarantined = 0, clean = 0;
    Image last_clean;
    for (int t = 0; t < 40; ++t) {
        const Image scene = testScene(96, 64, 100 + static_cast<u64>(t));
        PipelineFrameResult r;
        ASSERT_NO_THROW(r = pipeline.processFrame(scene)) << "frame " << t;
        ASSERT_EQ(r.decoded.width(), 96);
        ASSERT_EQ(r.decoded.height(), 64);
        if (r.quarantined) {
            ++quarantined;
            EXPECT_TRUE(r.held_last_good);
            // Hold-last-good must serve the previous good image (black
            // only before the first good frame exists).
            if (!last_clean.empty()) {
                EXPECT_EQ(r.decoded, last_clean) << "frame " << t;
            }
        } else {
            ++clean;
            last_clean = r.decoded;
        }
    }
    EXPECT_GT(quarantined, 0);
    EXPECT_GT(clean, 0);
    ASSERT_NE(pipeline.degradation(), nullptr);
    EXPECT_EQ(pipeline.totals().quarantined, static_cast<u64>(quarantined));
    EXPECT_GT(pipeline.frameStore().lifetimeReport().meta_bytes_corrupted,
              0u);
}

TEST(PipelineFault, TransientDmaFaultsAreRetriedNotFatal)
{
    PipelineConfig pc = smallPipeline();
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.at(fault::Stage::Dma).drop_rate = 0.3; // transient burst failures
    pc.fault.plan = &plan;
    pc.fault.graceful = true;
    VisionPipeline pipeline(pc);

    u64 transients = 0;
    for (int t = 0; t < 10; ++t) {
        PipelineFrameResult r;
        ASSERT_NO_THROW(
            r = pipeline.processFrame(
                testScene(96, 64, 200 + static_cast<u64>(t))));
        transients += r.transient_faults;
        EXPECT_EQ(r.decoded.width(), 96);
    }
    EXPECT_GT(transients, 0u);
    // At 0.3 the retry budget (3) recovers nearly every burst.
    const FrameStoreReport &life = pipeline.frameStore().lifetimeReport();
    EXPECT_GT(life.dma_retries, 0u);
    EXPECT_EQ(pipeline.degradation()->level(), 0); // transients never escalate
}

TEST(PipelineFault, DeadlineMissesClimbLadderAndShedWork)
{
    PipelineConfig pc = smallPipeline();
    fault::FaultPlan plan;
    plan.seed = 11;
    plan.at(fault::Stage::Deadline).drop_rate = 1.0; // miss every frame
    pc.fault.plan = &plan;
    pc.fault.graceful = true;
    pc.fault.degradation.escalate_after_misses = 2;
    pc.fault.degradation.max_level = 3;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(
        {{0, 0, 48, 32, 1, 1, 0}, {48, 0, 48, 32, 1, 1, 0},
         {0, 32, 48, 32, 1, 1, 0}, {48, 32, 48, 32, 1, 1, 0}});

    const Image scene = testScene(96, 64, 300);
    double kept_at_full = -1.0, kept_at_max = -1.0;
    int max_level = 0;
    for (int t = 0; t < 12; ++t) {
        const auto r = pipeline.processFrame(scene);
        EXPECT_TRUE(r.deadline_missed);
        if (t == 0)
            kept_at_full = r.kept_fraction;
        max_level = std::max(max_level, r.degradation_level);
        if (r.degradation_level == 3)
            kept_at_max = r.kept_fraction;
    }
    EXPECT_EQ(max_level, 3);
    ASSERT_GE(kept_at_max, 0.0);
    // Ladder sheds regions + coarsens skips: far fewer pixels kept.
    EXPECT_LT(kept_at_max, kept_at_full * 0.5);
    EXPECT_GE(pipeline.degradation()->stats().escalations, 3u);
}

TEST(PipelineFault, LadderClimbsStepwiseWhileMissesContinue)
{
    PipelineConfig pc = smallPipeline();
    pc.fault.graceful = true;
    fault::FaultPlan plan;
    plan.seed = 13;
    plan.at(fault::Stage::Deadline).drop_rate = 1.0;
    pc.fault.plan = &plan;
    VisionPipeline pipeline(pc);

    // Every frame misses; escalate_after_misses=2 steps the level once
    // per two frames until max_level pins it. (In-pipeline recovery needs
    // the faults to stop; the recovery transition itself is covered in
    // degradation_test where health is driven directly.)
    const Image scene = testScene(96, 64, 400);
    for (int t = 0; t < 4; ++t)
        pipeline.processFrame(scene);
    EXPECT_EQ(pipeline.degradation()->level(), 2);
    for (int t = 0; t < 2; ++t)
        pipeline.processFrame(scene);
    EXPECT_EQ(pipeline.degradation()->level(), 3);
    for (int t = 0; t < 4; ++t)
        pipeline.processFrame(scene);
    EXPECT_EQ(pipeline.degradation()->level(), 3); // pinned at max
}

TEST(PipelineFault, CsiLineDropsReportedAndContained)
{
    PipelineConfig pc = smallPipeline();
    fault::FaultPlan plan;
    plan.seed = 21;
    plan.at(fault::Stage::Csi2).drop_rate = 0.05;
    plan.at(fault::Stage::Csi2).byte_error_rate = 1e-4;
    pc.fault.plan = &plan;
    pc.fault.graceful = true;
    VisionPipeline pipeline(pc);

    u32 dropped = 0;
    for (int t = 0; t < 10; ++t) {
        PipelineFrameResult r;
        ASSERT_NO_THROW(
            r = pipeline.processFrame(
                testScene(96, 64, 500 + static_cast<u64>(t))));
        dropped += r.csi_dropped_lines;
        EXPECT_FALSE(r.quarantined); // sensor noise is not metadata damage
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(pipeline.csi().errorFrames(), 0u);
    EXPECT_EQ(pipeline.csi().framesTransferred(), 10u);
}

TEST(PipelineFault, InjectionDisabledLeavesCsiCountersClean)
{
    VisionPipeline pipeline(smallPipeline());
    for (int t = 0; t < 3; ++t)
        pipeline.processFrame(testScene(96, 64, 600));
    EXPECT_EQ(pipeline.csi().errorFrames(), 0u);
    EXPECT_EQ(pipeline.csi().framesTransferred(), 3u);
}

} // namespace
} // namespace rpx
