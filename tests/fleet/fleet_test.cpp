/**
 * @file
 * Integration tests for the multi-stream fleet server: byte-identity of a
 * 1-stream fleet against the legacy pipeline, engine-pool starvation,
 * all-streams-miss deadline escalation, stream join/leave mid-run,
 * per-stream telemetry conservation against the shared registry,
 * sensor-path streams under parallel capture workers, the
 * fleet ledger (FleetServer::totals()) against the report and journal,
 * and frame conservation when the scene source fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "frame/draw.hpp"
#include "sim/pipeline.hpp"
#include "../obs/outcome_metrics.hpp"

namespace rpx::fleet {
namespace {

Image
testScene(i32 w, i32 h, u64 seed)
{
    Image scene(w, h);
    Rng rng(seed);
    fillValueNoise(scene, rng, 30.0, 60, 180);
    return scene;
}

/** Deterministic per-(stream, frame) scene, shared by fleet and legacy. */
Image
sceneFor(u32 stream_id, u64 frame)
{
    return testScene(96, 64, 10'000 + 97 * stream_id + frame);
}

std::vector<RegionLabel>
testLabels()
{
    // Two overlapping regions with distinct spatial and temporal rhythm,
    // so history decode and skip logic are both exercised.
    return {{8, 8, 40, 32, 1, 1, 0}, {0, 0, 96, 64, 2, 2, 0}};
}

PipelineConfig
smallStream()
{
    PipelineConfig pc;
    pc.width = 96;
    pc.height = 64;
    return pc;
}

FleetConfig
smallFleet(u32 streams, u32 frames)
{
    FleetConfig fc;
    fc.stream = smallStream();
    fc.streams = streams;
    fc.frames_per_stream = frames;
    fc.use_deadlines = false;
    fc.scene_source = sceneFor;
    fc.label_source = [](u32) { return testLabels(); };
    return fc;
}

void
expectTotalsEqual(const obs::TelemetryTotals &a,
                  const obs::TelemetryTotals &b)
{
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.pixels_in, b.pixels_in);
    EXPECT_EQ(a.pixels_kept, b.pixels_kept);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
    EXPECT_EQ(a.region_comparisons, b.region_comparisons);
    EXPECT_EQ(a.compare_cycles, b.compare_cycles);
    EXPECT_EQ(a.stream_cycles, b.stream_cycles);
    EXPECT_EQ(a.quarantined_frames, b.quarantined_frames);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.transient_faults, b.transient_faults);
    EXPECT_DOUBLE_EQ(a.energy_total_nj, b.energy_total_nj);
}

/**
 * After run(), every queue handed out each task it took, and none ever
 * held more than max_streams tasks (resolved as FleetConfig documents):
 * a stream has at most one frame in the graph.
 */
void
expectQueuesDrainedWithinCap(const FleetReport &rep, const FleetConfig &fc)
{
    const u64 cap = fc.max_streams ? fc.max_streams : fc.streams + 64;
    const std::pair<const char *, StageQueueStats> queues[] = {
        {"capture", rep.capture_queue},
        {"encode", rep.encode_queue},
        {"store", rep.store_queue},
        {"decode", rep.decode_queue}};
    for (const auto &[name, q] : queues) {
        EXPECT_EQ(q.pushes, q.pops) << name;
        EXPECT_LE(q.high_water, cap) << name;
    }
}

TEST(Fleet, OneStreamFleetMatchesLegacyPipelineByteIdentical)
{
    constexpr u32 kFrames = 6;

    // Legacy: the facade (formerly the monolithic processFrame).
    obs::ObsContext legacy_obs;
    obs::TelemetrySink legacy_sink;
    PipelineConfig pc = smallStream();
    pc.obs = &legacy_obs;
    pc.telemetry = &legacy_sink;
    VisionPipeline legacy(pc);
    legacy.runtime().setRegionLabels(testLabels());
    std::vector<Image> legacy_frames;
    std::vector<double> legacy_kept;
    for (u32 f = 0; f < kFrames; ++f) {
        auto r = legacy.processFrame(sceneFor(0, f));
        legacy_frames.push_back(std::move(r.decoded));
        legacy_kept.push_back(r.kept_fraction);
    }

    // Fleet: one stream, deadlines off, through queues and engine pools.
    obs::ObsContext fleet_obs;
    obs::TelemetrySink fleet_sink;
    FleetConfig fc = smallFleet(1, kFrames);
    fc.stream.obs = &fleet_obs;
    fc.stream.telemetry = &fleet_sink;
    std::mutex sink_mutex;
    std::map<FrameIndex, Image> fleet_frames;
    fc.frame_sink = [&](StreamContext &, const PipelineFrameResult &r) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        fleet_frames[r.index] = r.decoded;
    };
    FleetServer server(fc);
    const FleetReport rep = server.run();

    ASSERT_EQ(rep.frames, kFrames);
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_EQ(rep.deadline_misses, 0u);
    ASSERT_EQ(fleet_frames.size(), kFrames);
    for (u32 f = 0; f < kFrames; ++f)
        EXPECT_EQ(fleet_frames.at(f), legacy_frames[f])
            << "decoded frame " << f << " diverged";

    // Telemetry totals reconcile exactly (stream label does not enter
    // the sums), and the fleet journal is keyed by "s0".
    expectTotalsEqual(fleet_sink.totals(), legacy_sink.totals());
    const auto per_stream = fleet_sink.perStreamTotals();
    ASSERT_EQ(per_stream.size(), 1u);
    ASSERT_TRUE(per_stream.count("s0"));
    expectTotalsEqual(per_stream.at("s0"), legacy_sink.totals());

    // Registry counters match the legacy registry counter for counter.
    for (const char *name :
         {"pipeline.frames", "pipeline.bytes_written",
          "pipeline.bytes_read", "pipeline.metadata_bytes",
          "pipeline.quarantined_frames", "pipeline.deadline_misses",
          "pipeline.transient_faults"}) {
        EXPECT_EQ(fleet_obs.registry().counter(name).value(),
                  legacy_obs.registry().counter(name).value())
            << name;
    }
    // Kept fraction per frame matched the legacy run.
    const auto frames = fleet_sink.frames();
    ASSERT_EQ(frames.size(), kFrames);
    for (u32 f = 0; f < kFrames; ++f) {
        EXPECT_EQ(frames[f].stream, "s0");
        EXPECT_EQ(frames[f].index, f);
    }
    EXPECT_DOUBLE_EQ(rep.kept_fraction_mean,
                     std::accumulate(legacy_kept.begin(),
                                     legacy_kept.end(), 0.0) /
                         kFrames);
}

TEST(Fleet, EnginePoolStarvationStillCompletesAllStreams)
{
    // 6 streams share ONE encode and ONE decode engine, with more workers
    // than engines, so workers contend for permits.
    FleetConfig fc = smallFleet(6, 2);
    fc.encode_engines = 1;
    fc.decode_engines = 1;
    fc.encode_workers = 3;
    fc.decode_workers = 2;
    fc.capture_workers = 2;
    FleetServer server(fc);
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.frames, 12u);
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_EQ(rep.streams_completed, 6u);
    // Every frame acquired each engine exactly once, and the permit
    // ceiling was never breached.
    EXPECT_EQ(rep.encode_engines.acquisitions, 12u);
    EXPECT_EQ(rep.decode_engines.acquisitions, 12u);
    EXPECT_EQ(rep.encode_engines.max_in_use, 1u);
    EXPECT_EQ(rep.decode_engines.max_in_use, 1u);
}

TEST(Fleet, AllStreamsMissingDeadlinesEscalatePerStream)
{
    // An absurd frame rate makes every deadline unmeetable, so every
    // frame misses and each stream walks its own ladder to the bottom.
    FleetConfig fc = smallFleet(3, 8);
    fc.use_deadlines = true;
    fc.stream.fps = 1e9;
    FleetServer server(fc);
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.frames, 24u);
    EXPECT_EQ(rep.deadline_misses, 24u);
    ASSERT_EQ(rep.streams.size(), 3u);
    for (const FleetStreamReport &s : rep.streams) {
        EXPECT_EQ(s.totals.frames, 8u);
        EXPECT_EQ(s.totals.deadline_misses, 8u);
        // escalate_after_misses=2, max_level=3: 8 straight misses pin
        // the stream at the deepest degradation level.
        EXPECT_EQ(s.degradation_level, 3);
    }
    // Degradation shrinks the kept fraction versus a miss-free run.
    FleetConfig relaxed = smallFleet(3, 8);
    FleetServer relaxed_server(relaxed);
    const FleetReport relaxed_rep = relaxed_server.run();
    EXPECT_EQ(relaxed_rep.deadline_misses, 0u);
    EXPECT_LT(rep.kept_fraction_mean, relaxed_rep.kept_fraction_mean);
}

TEST(Fleet, StreamsJoinAndLeaveMidRun)
{
    FleetConfig fc = smallFleet(2, 6);
    std::atomic<bool> joined{false};
    std::atomic<u32> join_id{0};
    FleetServer *server_ptr = nullptr;
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        if (s.id() == 0 && r.index == 1 && !joined.exchange(true))
            join_id = server_ptr->addStream();
        if (s.id() == 1 && r.index == 0) {
            EXPECT_TRUE(server_ptr->removeStream(1));
        }
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.streams_started, 3u);
    ASSERT_TRUE(joined.load());
    std::map<u32, FleetStreamReport> by_id;
    for (const auto &s : rep.streams)
        by_id[s.id] = s;
    // The removed stream stopped after its in-flight frame.
    EXPECT_EQ(by_id.at(1).totals.frames, 1u);
    EXPECT_FALSE(by_id.at(1).completed);
    // The joined stream ran its full target.
    EXPECT_EQ(by_id.at(join_id.load()).totals.frames, 6u);
    EXPECT_TRUE(by_id.at(join_id.load()).completed);
    EXPECT_EQ(by_id.at(0).totals.frames, 6u);
    EXPECT_EQ(rep.frames, 6u + 1u + 6u);
    expectQueuesDrainedWithinCap(rep, fc);
    // Removing an already-finished stream is refused.
    EXPECT_FALSE(server.removeStream(1));
    EXPECT_FALSE(server.removeStream(999));
}

/**
 * Regression: mid-run removeStream with an in-flight frame, under fault
 * injection, with a replacement stream added from the retirement hook.
 * The departing stream's last frame must land in the journal (telemetry
 * conservation holds across leave), the retirement hook must fire for
 * every stream with its final per-stream report, and the retired
 * stream's context must be released (stream() goes null).
 */
TEST(Fleet, ChurnUnderFaultInjectionConservesTelemetry)
{
    obs::ObsContext obs;
    obs::TelemetrySink sink;
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.at(fault::Stage::Dma).drop_rate = 0.2;       // transient retries
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 2e-4; // quarantine
    FleetConfig fc = smallFleet(4, 6);
    fc.stream.obs = &obs;
    fc.stream.telemetry = &sink;
    fc.stream.fault.plan = &plan;
    fc.stream.fault.graceful = true;
    fc.stream.fault.crc_metadata = true;

    FleetServer *server_ptr = nullptr;
    std::atomic<bool> removed{false};
    std::atomic<u32> replacement_id{0};
    std::mutex retired_mutex;
    std::map<u32, FleetStreamReport> retired;
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        // Stream 1 leaves after its first frame completes; the sink runs
        // before completion accounting, so that frame is its last.
        if (s.id() == 1 && r.index == 0 && !removed.exchange(true)) {
            EXPECT_TRUE(server_ptr->removeStream(1));
        }
    };
    fc.stream_retired = [&](const FleetStreamReport &sr) {
        {
            std::lock_guard<std::mutex> lock(retired_mutex);
            EXPECT_FALSE(retired.count(sr.id)) << "double retirement";
            retired[sr.id] = sr;
        }
        // The departed stream is replaced from the hook — the shutdown
        // re-check must keep the fleet open for the newcomer even when
        // it was momentarily the only live stream.
        if (sr.id == 1)
            replacement_id = server_ptr->addStream();
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    ASSERT_TRUE(removed.load());
    EXPECT_EQ(rep.streams_started, 5u);
    EXPECT_EQ(rep.errors, 0u); // graceful mode contains every fault
    std::map<u32, FleetStreamReport> by_id;
    for (const auto &s : rep.streams)
        by_id[s.id] = s;
    EXPECT_EQ(by_id.at(1).totals.frames, 1u);
    EXPECT_FALSE(by_id.at(1).completed);
    EXPECT_EQ(by_id.at(replacement_id.load()).totals.frames, 6u);
    EXPECT_EQ(rep.frames, 3u * 6u + 1u + 6u);
    expectQueuesDrainedWithinCap(rep, fc);

    // Retirement hook fired once per stream with the final counts.
    ASSERT_EQ(retired.size(), 5u);
    for (const auto &s : rep.streams) {
        ASSERT_TRUE(retired.count(s.id)) << "stream " << s.id;
        EXPECT_EQ(retired.at(s.id).totals.frames, s.totals.frames);
        EXPECT_EQ(retired.at(s.id).label, s.label);
        EXPECT_EQ(retired.at(s.id).completed, s.completed);
    }

    // Retired contexts are released — join/leave churn cannot accumulate
    // dead streams.
    EXPECT_EQ(server.stream(1), nullptr);

    // The removed stream's frame is in the journal: telemetry
    // conservation holds across leave, faults and all.
    const auto per_stream = sink.perStreamTotals();
    ASSERT_TRUE(per_stream.count("s1"));
    EXPECT_EQ(per_stream.at("s1").frames, 1u);
    EXPECT_EQ(sink.streamTotals("s1").bytes_written,
              per_stream.at("s1").bytes_written);
    EXPECT_EQ(sink.streamTotals("no-such-stream").frames, 0u);
    u64 frames = 0, quarantined = 0, transients = 0;
    Bytes written = 0, read = 0, meta = 0;
    for (const auto &[label, totals] : per_stream) {
        frames += totals.frames;
        quarantined += totals.quarantined_frames;
        transients += totals.transient_faults;
        written += totals.bytes_written;
        read += totals.bytes_read;
        meta += totals.metadata_bytes;
    }
    EXPECT_EQ(frames, rep.frames);
    obs::PerfRegistry &r = obs.registry();
    EXPECT_EQ(r.counter("pipeline.frames").value(), frames);
    EXPECT_EQ(r.counter("pipeline.quarantined_frames").value(),
              quarantined);
    EXPECT_EQ(r.counter("pipeline.transient_faults").value(), transients);
    EXPECT_EQ(r.counter("pipeline.bytes_written").value(),
              static_cast<u64>(written));
    EXPECT_EQ(r.counter("pipeline.bytes_read").value(),
              static_cast<u64>(read));
    EXPECT_EQ(r.counter("pipeline.metadata_bytes").value(),
              static_cast<u64>(meta));
    EXPECT_EQ(rep.quarantined, quarantined);
    EXPECT_EQ(rep.transient_faults, transients);
    // Every outcome counter, energy gauge and degrade.* outcome counter
    // reconciles with the journal under faults and churn.
    expectOutcomeMetricsMatchJournal(registryLookup(obs.registry()),
                                     sink.frames(), /*ladder=*/true);
}

/**
 * A retire hook may add its replacement only after every other stream has
 * retired. The fleet must stay open while that hook runs: closing on the
 * last live stream alone would refuse the replacement as "drained".
 */
TEST(Fleet, SlowRetireHookStillAddsReplacement)
{
    FleetConfig fc = smallFleet(2, 6);
    FleetServer *server_ptr = nullptr;
    std::atomic<bool> removed{false};
    std::mutex mutex;
    std::condition_variable cv;
    u32 retirements = 0;
    std::atomic<u32> replacement_id{~0u};
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        // Stream 0 leaves after its first frame, long before stream 1.
        if (s.id() == 0 && r.index == 0 && !removed.exchange(true)) {
            EXPECT_TRUE(server_ptr->removeStream(0));
        }
    };
    fc.stream_retired = [&](const FleetStreamReport &sr) {
        std::unique_lock<std::mutex> lock(mutex);
        ++retirements;
        cv.notify_all();
        if (sr.id != 0)
            return;
        // Hold stream 0's hook until stream 1 has retired as well, so no
        // stream is live when the replacement arrives.
        EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return retirements >= 2; }));
        lock.unlock();
        try {
            replacement_id = server_ptr->addStream();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "replacement refused: " << e.what();
        }
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.streams_started, 3u);
    EXPECT_EQ(rep.frames, 1u + 6u + 6u);
    std::map<u32, FleetStreamReport> by_id;
    for (const auto &s : rep.streams)
        by_id[s.id] = s;
    ASSERT_TRUE(by_id.count(replacement_id.load()));
    EXPECT_EQ(by_id.at(replacement_id.load()).totals.frames, 6u);
}

/**
 * A stream admitted while the last live stream retires runs to
 * completion. That needs the capture queue to close in the same critical
 * section that finds the fleet empty: a tryAddStream() between that
 * decision and the close would pass admission and seed its first frame,
 * and the queue would then close under it, leaving the stream's next
 * frame nowhere to go. The window is a few instructions wide, so two
 * threads race admission against many short fleets; with a deferred
 * close a stream was lost within the first 15 fleets.
 */
TEST(Fleet, StreamAdmittedDuringLastRetirementCompletes)
{
    constexpr int kRuns = 200;
    for (int run = 0; run < kRuns; ++run) {
        FleetConfig fc = smallFleet(1, 2);
        fc.max_streams = 1;
        fc.capture_workers = 1;
        fc.encode_engines = 1;
        fc.decode_engines = 1;
        FleetServer server(fc);
        std::vector<std::jthread> adders;
        for (int i = 0; i < 2; ++i)
            adders.emplace_back([&server](std::stop_token stop) {
                while (!stop.stop_requested())
                    (void)server.tryAddStream();
            });
        const FleetReport rep = server.run();
        adders.clear(); // stop and join
        ASSERT_EQ(rep.streams_completed, rep.streams_started)
            << "run " << run << " lost an admitted stream";
        ASSERT_EQ(rep.frames, 2u * rep.streams_started) << "run " << run;
    }
}

/**
 * A scene source that throws while a stream's next frame is built costs
 * that stream one errored frame and retires it. The frame is counted like
 * any other outcome, so frames == delivered + shed + errors holds for the
 * report and for every stream.
 */
TEST(Fleet, SceneSourceFailureCountsOneErroredFrame)
{
    constexpr u32 kFailStream = 1;
    constexpr u64 kFailFrame = 2;
    FleetConfig fc = smallFleet(3, 5);
    fc.scene_source = [](u32 id, u64 frame) {
        if (id == kFailStream && frame == kFailFrame)
            throw std::runtime_error("scene source failed");
        return sceneFor(id, frame);
    };
    std::mutex mutex;
    std::map<u32, u64> delivered;
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &) {
        std::lock_guard<std::mutex> lock(mutex);
        ++delivered[s.id()];
    };
    FleetServer server(fc);
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.errors, 1u);
    u64 delivered_total = 0;
    for (const FleetStreamReport &s : rep.streams) {
        delivered_total += delivered[s.id];
        EXPECT_EQ(s.totals.frames,
                  delivered[s.id] + s.totals.shed_frames + s.totals.errors)
            << "stream " << s.id;
        if (s.id == kFailStream) {
            EXPECT_EQ(s.totals.frames, kFailFrame + 1);
            EXPECT_EQ(s.totals.errors, 1u);
            EXPECT_FALSE(s.completed);
        }
    }
    EXPECT_EQ(rep.frames, delivered_total + rep.shed_frames + rep.errors);
    EXPECT_EQ(rep.frames, 2u * 5u + kFailFrame + 1);
}

/**
 * FleetServer::totals() is the ledger every frame report views. Read from
 * the frame sink, it only grows and never counts a frame the journal has
 * not recorded; after run() it equals the report's frame fields and the
 * journal field for field. The errored frame is the one exception: it
 * carries no result, so it has no journal line.
 */
TEST(Fleet, TotalsMatchReportAndJournal)
{
    obs::TelemetrySink sink;
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.at(fault::Stage::Dma).drop_rate = 0.2;
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 2e-4;
    FleetConfig fc = smallFleet(4, 8);
    fc.stream.telemetry = &sink;
    fc.stream.fault.plan = &plan;
    fc.stream.fault.graceful = true;
    fc.stream.fault.crc_metadata = true;
    fc.scene_source = [](u32 id, u64 frame) {
        if (id == 2 && frame == 5)
            throw std::runtime_error("scene source failed");
        return sceneFor(id, frame);
    };

    FleetServer *server_ptr = nullptr;
    std::mutex mutex;
    FrameTotals last;
    u64 reads = 0;
    fc.frame_sink = [&](StreamContext &, const PipelineFrameResult &) {
        std::lock_guard<std::mutex> lock(mutex);
        // Ledger first, journal second: a frame is journaled before the
        // ledger counts it.
        const FrameTotals l = server_ptr->totals();
        const obs::TelemetryTotals j = sink.totals();
        EXPECT_GE(l.frames, last.frames);
        EXPECT_GE(l.errors, last.errors);
        EXPECT_GE(l.bytes_written, last.bytes_written);
        EXPECT_GE(l.bytes_read, last.bytes_read);
        EXPECT_GE(l.metadata_bytes, last.metadata_bytes);
        EXPECT_GE(l.transient_faults, last.transient_faults);
        EXPECT_LE(l.frames - l.errors, j.frames);
        EXPECT_LE(l.bytes_written, j.bytes_written);
        last = l;
        ++reads;
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    EXPECT_GT(reads, 0u);
    const FrameTotals l = server.totals();
    EXPECT_EQ(l.errors, 1u);
    EXPECT_GT(l.quarantined + l.transient_faults, 0u); // faults fired
    EXPECT_EQ(l.frames, rep.frames);
    EXPECT_EQ(l.errors, rep.errors);
    EXPECT_EQ(l.deadline_misses, rep.deadline_misses);
    EXPECT_EQ(l.quarantined, rep.quarantined);
    EXPECT_EQ(l.shed_frames, rep.shed_frames);
    EXPECT_EQ(l.transient_faults, rep.transient_faults);
    EXPECT_EQ(l.dma_retries, rep.dma_retries);
    EXPECT_EQ(l.dma_dropped_bursts, rep.dma_dropped_bursts);
    EXPECT_EQ(l.bytes_written, rep.bytes_written);
    EXPECT_EQ(l.bytes_read, rep.bytes_read);
    EXPECT_EQ(l.metadata_bytes, rep.metadata_bytes);
    EXPECT_DOUBLE_EQ(l.kept_sum / static_cast<double>(l.frames - l.errors),
                     rep.kept_fraction_mean);

    const obs::TelemetryTotals j = sink.totals();
    EXPECT_EQ(l.frames - l.errors, j.frames);
    EXPECT_EQ(l.deadline_misses, j.deadline_misses);
    EXPECT_EQ(l.quarantined, j.quarantined_frames);
    EXPECT_EQ(l.shed_frames, j.shed_frames);
    EXPECT_EQ(l.transient_faults, j.transient_faults);
    EXPECT_EQ(l.dma_retries, j.dma_retries);
    EXPECT_EQ(l.dma_dropped_bursts, j.dma_dropped_bursts);
    EXPECT_EQ(l.bytes_written, j.bytes_written);
    EXPECT_EQ(l.bytes_read, j.bytes_read);
    EXPECT_EQ(l.metadata_bytes, j.metadata_bytes);
}

/**
 * drain(): every stream stops after its in-flight frame; run() returns
 * with partial frame counts and completed=false for the cut-short ones.
 */
TEST(Fleet, DrainStopsAllStreamsAfterInFlightFrames)
{
    FleetConfig fc = smallFleet(3, 1000); // would run ~forever
    FleetServer *server_ptr = nullptr;
    std::atomic<bool> drained{false};
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        if (s.id() == 0 && r.index == 2 && !drained.exchange(true))
            server_ptr->drain();
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();
    ASSERT_TRUE(drained.load());
    EXPECT_EQ(rep.streams_completed, 0u);
    // Every stream stopped almost immediately after the drain call: at
    // most its in-flight frame plus one it resubmitted concurrently.
    EXPECT_LT(rep.frames, 3u * 16u);
    for (const auto &s : rep.streams) {
        EXPECT_GE(s.totals.frames, 1u);
        EXPECT_FALSE(s.completed);
    }
}

/**
 * Satellite (f): per-stream journal totals sum to the shared registry's
 * pipeline.* counters — serial and parallel worker configurations alike.
 */
class FleetConservation : public ::testing::TestWithParam<bool>
{
};

TEST_P(FleetConservation, PerStreamTotalsSumToRegistryCounters)
{
    const bool parallel = GetParam();
    obs::ObsContext obs;
    obs::TelemetrySink sink;
    FleetConfig fc = smallFleet(4, 5);
    fc.stream.obs = &obs;
    fc.stream.telemetry = &sink;
    if (parallel) {
        fc.capture_workers = 2;
        fc.encode_engines = 4;
        fc.decode_engines = 4;
    } else {
        fc.capture_workers = 1;
        fc.encode_engines = 1;
        fc.decode_engines = 1;
    }
    FleetServer server(fc);
    const FleetReport rep = server.run();
    ASSERT_EQ(rep.frames, 20u);
    ASSERT_EQ(rep.errors, 0u);
    expectQueuesDrainedWithinCap(rep, fc);

    const auto per_stream = sink.perStreamTotals();
    ASSERT_EQ(per_stream.size(), 4u);
    obs::TelemetryTotals sum;
    for (const auto &[label, totals] : per_stream) {
        EXPECT_EQ(label.rfind("s", 0), 0u) << label;
        sum.frames += totals.frames;
        sum.pixels_in += totals.pixels_in;
        sum.pixels_kept += totals.pixels_kept;
        sum.bytes_written += totals.bytes_written;
        sum.bytes_read += totals.bytes_read;
        sum.metadata_bytes += totals.metadata_bytes;
        sum.quarantined_frames += totals.quarantined_frames;
        sum.deadline_misses += totals.deadline_misses;
        sum.transient_faults += totals.transient_faults;
    }
    expectTotalsEqual(sink.totals(), [&] {
        obs::TelemetryTotals t = sink.totals();
        // Only the summable fields are compared below; start from the
        // full totals so the energy/cycle fields trivially match.
        t.frames = sum.frames;
        t.pixels_in = sum.pixels_in;
        t.pixels_kept = sum.pixels_kept;
        t.bytes_written = sum.bytes_written;
        t.bytes_read = sum.bytes_read;
        t.metadata_bytes = sum.metadata_bytes;
        t.quarantined_frames = sum.quarantined_frames;
        t.deadline_misses = sum.deadline_misses;
        t.transient_faults = sum.transient_faults;
        return t;
    }());

    // Journal totals == registry counters (the conservation invariant).
    obs::PerfRegistry &r = obs.registry();
    EXPECT_EQ(r.counter("pipeline.frames").value(), sum.frames);
    EXPECT_EQ(r.counter("pipeline.bytes_written").value(),
              static_cast<u64>(sum.bytes_written));
    EXPECT_EQ(r.counter("pipeline.bytes_read").value(),
              static_cast<u64>(sum.bytes_read));
    EXPECT_EQ(r.counter("pipeline.metadata_bytes").value(),
              static_cast<u64>(sum.metadata_bytes));
    EXPECT_EQ(r.counter("pipeline.quarantined_frames").value(),
              sum.quarantined_frames);
    EXPECT_EQ(r.counter("pipeline.deadline_misses").value(),
              sum.deadline_misses);
    EXPECT_EQ(r.counter("pipeline.transient_faults").value(),
              sum.transient_faults);
    // And the fleet report agrees with both.
    EXPECT_EQ(rep.bytes_written, sum.bytes_written);
    EXPECT_EQ(rep.bytes_read, sum.bytes_read);
    EXPECT_EQ(rep.metadata_bytes, sum.metadata_bytes);
    // Every outcome counter and energy gauge, record by record; without
    // deadlines or faults no stream builds a ladder.
    expectOutcomeMetricsMatchJournal(registryLookup(r), sink.frames(),
                                     /*ladder=*/false);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, FleetConservation,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "Parallel" : "Serial";
                         });

/** What a sensor-path fleet run produced, keyed by (stream, frame). */
struct SensorFleetRun {
    std::map<std::pair<u32, FrameIndex>, u32> decoded_crc;
    std::vector<std::string> journal; //!< *_us zeroed, sorted
};

/**
 * Four RGB streams through the sensor model, CSI-2 (dropping lines and
 * flipping bytes) and the kept-pixel ISP, with `workers` capture workers
 * and as many engines of each kind.
 */
SensorFleetRun
runSensorFleet(u32 workers)
{
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.at(fault::Stage::Csi2).byte_error_rate = 1e-3;
    plan.at(fault::Stage::Csi2).drop_rate = 0.03;
    obs::TelemetrySink sink;
    FleetConfig fc = smallFleet(4, 6);
    fc.stream.use_sensor_path = true;
    fc.stream.fault.plan = &plan;
    fc.stream.telemetry = &sink;
    fc.capture_workers = workers;
    fc.encode_engines = workers;
    fc.decode_engines = workers;
    fc.scene_source = [](u32 id, u64 frame) {
        Image rgb(96, 64, PixelFormat::Rgb8);
        for (int c = 0; c < 3; ++c) {
            const Image plane = sceneFor(id, 3 * frame + c);
            for (i32 y = 0; y < 64; ++y)
                for (i32 x = 0; x < 96; ++x)
                    rgb.set(x, y, c, plane.at(x, y));
        }
        return rgb;
    };
    // The region rhythms leave rows the ISP never reads on some frames.
    fc.label_source = [](u32) {
        return std::vector<RegionLabel>{{8, 8, 40, 20, 1, 1, 0},
                                        {0, 0, 96, 64, 4, 2, 0}};
    };
    SensorFleetRun run;
    std::mutex mutex;
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        std::lock_guard<std::mutex> lock(mutex);
        run.decoded_crc[{s.id(), r.index}] = crc32(r.decoded.data());
    };
    FleetServer server(fc);
    const FleetReport rep = server.run();
    EXPECT_EQ(rep.frames, 24u);
    EXPECT_EQ(rep.errors, 0u);
    for (obs::FrameTelemetry f : sink.frames()) {
        f.sensor_us = f.isp_us = f.encode_us = 0.0;
        f.dram_write_us = f.decode_us = f.total_us = 0.0;
        run.journal.push_back(obs::writeFrameJson(f));
    }
    std::sort(run.journal.begin(), run.journal.end());
    return run;
}

/**
 * Each stream's sensor owns one raw buffer that successive frames reuse
 * from whichever capture worker runs them. Parallel capture workers
 * must decode the same bytes and journal the same frames as one worker
 * (wall-clock fields aside).
 */
TEST(Fleet, SensorPathStreamsMatchAcrossCaptureWorkers)
{
    const SensorFleetRun serial = runSensorFleet(1);
    const SensorFleetRun parallel = runSensorFleet(2);
    ASSERT_EQ(serial.decoded_crc.size(), 24u);
    EXPECT_EQ(parallel.decoded_crc, serial.decoded_crc);
    ASSERT_EQ(serial.journal.size(), 24u);
    EXPECT_EQ(parallel.journal, serial.journal);
    u32 dropped_frames = 0;
    for (const std::string &line : serial.journal)
        if (line.find("\"csi_dropped_lines\":0") == std::string::npos)
            ++dropped_frames;
    EXPECT_GT(dropped_frames, 0u);
}

TEST(Fleet, ReportJsonIsWellFormed)
{
    FleetConfig fc = smallFleet(2, 2);
    FleetServer server(fc);
    const FleetReport rep = server.run();
    const std::string text = toJson(rep);
    EXPECT_NE(text.find("\"schema\": \"rpx-fleet-report-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"frames\": 4"), std::string::npos);
    EXPECT_NE(text.find("\"label\": \"s0\""), std::string::npos);
}

TEST(Fleet, RejectsInvalidConfigs)
{
    FleetConfig fc = smallFleet(1, 0);
    EXPECT_THROW(FleetServer{fc}, std::invalid_argument);
    FleetConfig no_scene = smallFleet(1, 1);
    no_scene.scene_source = nullptr;
    FleetServer server(no_scene);
    EXPECT_THROW(server.run(), std::invalid_argument);
    FleetConfig bad_fps = smallFleet(1, 1);
    bad_fps.use_deadlines = true;
    bad_fps.stream.fps = 0.0;
    EXPECT_THROW(FleetServer{bad_fps}, std::invalid_argument);
}

TEST(Fleet, RunIsSingleShot)
{
    FleetConfig fc = smallFleet(1, 1);
    FleetServer server(fc);
    (void)server.run();
    EXPECT_THROW(server.run(), std::runtime_error);
}

} // namespace
} // namespace rpx::fleet
