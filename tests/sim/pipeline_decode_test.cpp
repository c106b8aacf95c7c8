/**
 * @file
 * The decode stage's cached decode, end to end: every frame a
 * VisionPipeline decodes through its stream's DecodedFrameCache must be
 * byte-identical to the per-pixel reference walk over the frames in its
 * FrameStore, with matching fill and black tallies. The sequences are the ones the workloads run: the SLAM
 * loop's region trace, the Figs. 10-15 sequences (SLAM, pose, face at
 * cycle length 6) and the fault-injection cases of pipeline_fault_test,
 * whose quarantines, skipped history frames and degradation-ladder label
 * changes force the cache's fallbacks.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "../core/reference_decode.hpp"
#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "sim/pipeline.hpp"
#include "sim/workload.hpp"

namespace rpx {
namespace {

/** Labels and scene of frame t of a replayed sequence. */
struct ReplayFrame {
    std::vector<RegionLabel> labels; //!< empty: keep the last labels
    Image scene;
};

/**
 * Push `frames` frames through a pipeline built from `pc`, checking each
 * decode against the reference over the store's usable history. A
 * quarantined frame must hold the last good image. Returns the number of
 * quarantined frames.
 */
int
expectReplayMatchesReference(const PipelineConfig &pc, int frames,
                             const std::function<ReplayFrame(int)> &frameAt,
                             const std::string &what)
{
    VisionPipeline p(pc);
    const SoftwareDecoder &dec = p.streamContext().swDecoder();
    Image last_good;
    int quarantined = 0;
    for (int t = 0; t < frames; ++t) {
        const ReplayFrame f = frameAt(t);
        const std::string where = what + " t=" + std::to_string(t);
        if (!f.labels.empty())
            p.runtime().setRegionLabels(f.labels);
        const PipelineFrameResult r = p.processFrame(f.scene);
        if (r.quarantined) {
            ++quarantined;
            if (!last_good.empty()) {
                EXPECT_EQ(r.decoded, last_good) << where;
            }
            continue;
        }
        const FrameStore &store = p.frameStore();
        std::vector<const EncodedFrame *> history;
        for (size_t k = 1; k < store.size(); ++k)
            history.push_back(store.recent(k));
        const ReferenceDecode ref = referenceDecode(
            *store.recent(0), usableHistory(*store.recent(0), history));
        EXPECT_EQ(r.decoded.data(), ref.image.data()) << where;
        EXPECT_EQ(dec.lastHistoryFills(), ref.history_fills) << where;
        EXPECT_EQ(dec.lastBlackPixels(), ref.black) << where;
        last_good = r.decoded;
    }
    return quarantined;
}

/** Replay a workload run's region trace over its rendered scenes. */
template <typename Sequence>
void
expectTraceReplayMatches(const Sequence &sequence, const RegionTrace &trace,
                         const std::string &what)
{
    PipelineConfig pc;
    pc.width = sequence.config().width;
    pc.height = sequence.config().height;
    expectReplayMatchesReference(
        pc, static_cast<int>(trace.size()),
        [&](int t) {
            return ReplayFrame{trace[static_cast<size_t>(t)],
                               sequence.renderFrame(t)};
        },
        what);
}

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

TEST(PipelineDecoderCache, SlamSequenceMatchesReference)
{
    WorkloadConfig rp;
    rp.scheme = CaptureScheme::RP;
    rp.cycle_length = 5;
    const SlamRunResult run = runSlamWorkload(tinySlam(), rp);
    expectTraceReplayMatches(SlamSequence(tinySlam()), run.trace, "slam");
}

/** bench_fig10_15's sequences, at a reduced size and length. */
TEST(PipelineDecoderCache, Fig10To15SequencesMatchReference)
{
    WorkloadConfig wc;
    wc.scheme = CaptureScheme::RP;
    wc.cycle_length = 6;
    for (const SlamSequenceConfig &seq : slamBenchmarkSuite(320, 240, 14, 3)) {
        const SlamRunResult run = runSlamWorkload(seq, wc);
        expectTraceReplayMatches(SlamSequence(seq), run.trace, seq.name);
    }
    for (int variant = 0; variant < 2; ++variant) {
        PoseSequenceConfig seq;
        seq.width = 320;
        seq.height = 180;
        seq.frames = 14;
        seq.persons = 2 + variant;
        seq.seed = 501 + static_cast<u64>(variant) * 77;
        const DetectionRunResult run = runPoseWorkload(seq, wc);
        expectTraceReplayMatches(PoseSequence(seq), run.trace,
                                 "walk-" + std::to_string(variant));
    }
    FaceSequenceConfig face;
    face.width = 320;
    face.height = 240;
    face.frames = 14;
    const DetectionRunResult run = runFaceWorkload(face, wc);
    expectTraceReplayMatches(FaceSequence(face), run.trace, "portal-0");
}

Image
testScene(i32 w, i32 h, u64 seed)
{
    Image scene(w, h);
    Rng rng(seed);
    fillValueNoise(scene, rng, 30.0, 60, 180);
    return scene;
}

/**
 * pipeline_fault_test's injector cases: metadata corruption
 * (quarantines, then skipped history frames), DMA burst failures, CSI
 * line drops and bit errors, and deadline misses that climb the
 * degradation ladder (which drops regions and coarsens skips).
 */
TEST(PipelineDecoderCache, FaultInjectorCasesMatchReference)
{
    struct Case {
        const char *name;
        fault::Stage stage;
        double drop_rate;
        double byte_error_rate;
        u64 seed;
    };
    const Case cases[] = {
        {"frame_meta", fault::Stage::FrameMeta, 0.0, 2e-4, 42},
        {"dma", fault::Stage::Dma, 0.3, 0.0, 7},
        {"csi", fault::Stage::Csi2, 0.05, 1e-4, 21},
        {"deadline", fault::Stage::Deadline, 1.0, 0.0, 11},
    };
    const std::vector<RegionLabel> labels = {{0, 0, 96, 64, 2, 2, 0},
                                             {8, 8, 60, 40, 1, 1, 0},
                                             {48, 32, 48, 32, 1, 3, 1}};
    for (const Case &c : cases) {
        fault::FaultPlan plan;
        plan.seed = c.seed;
        plan.at(c.stage).drop_rate = c.drop_rate;
        plan.at(c.stage).byte_error_rate = c.byte_error_rate;
        PipelineConfig pc;
        pc.width = 96;
        pc.height = 64;
        pc.fault.plan = &plan;
        pc.fault.crc_metadata = true;
        pc.fault.graceful = true;
        pc.fault.degradation.escalate_after_misses = 2;
        pc.fault.degradation.max_level = 3;
        const int quarantined = expectReplayMatchesReference(
            pc, 40,
            [&](int t) {
                return ReplayFrame{t == 0 ? labels
                                          : std::vector<RegionLabel>{},
                                   testScene(96, 64,
                                             100 + static_cast<u64>(t))};
            },
            c.name);
        if (c.stage == fault::Stage::FrameMeta) {
            EXPECT_GT(quarantined, 0);
        }
    }
}

} // namespace
} // namespace rpx
