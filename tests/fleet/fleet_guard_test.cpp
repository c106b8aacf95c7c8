/**
 * @file
 * Integration tests for the fleet overload-protection layer: capacity-model
 * admission (reject-with-reason, re-admission after load drops), hard-cap
 * rejection under saturation churn, deadline-aware shedding conservation
 * at the encode and decode points, and watchdog eviction of a chaos-wedged
 * worker (no hang).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "common/rng.hpp"
#include "energy/energy_model.hpp"
#include "fleet/fleet.hpp"
#include "frame/draw.hpp"

namespace rpx::fleet {
namespace {

Image
sceneFor(u32 stream_id, u64 frame)
{
    Image scene(96, 64);
    Rng rng(20'000 + 101 * stream_id + frame);
    fillValueNoise(scene, rng, 30.0, 60, 180);
    return scene;
}

std::vector<RegionLabel>
testLabels()
{
    return {{8, 8, 40, 32, 1, 1, 0}, {0, 0, 96, 64, 2, 2, 0}};
}

FleetConfig
guardFleet(u32 streams, u32 frames)
{
    FleetConfig fc;
    fc.stream.width = 96;
    fc.stream.height = 64;
    fc.streams = streams;
    fc.frames_per_stream = frames;
    fc.use_deadlines = false;
    fc.scene_source = sceneFor;
    fc.label_source = [](u32) { return testLabels(); };
    return fc;
}

/**
 * Capacity-model admission: with a configured per-frame cost the usable
 * capacity is engines * (1e6 / cost) * headroom frames/s. One engine at
 * 10 ms/frame and 0.85 headroom serves 85 fps; two 30 fps streams fit
 * (60), a third does not (90). After one stream leaves, the candidate
 * fits again (60) — the reject→re-admission cycle the satellite pins.
 */
TEST(FleetGuard, CapacityRejectThenReadmitAfterLoadDrops)
{
    FleetConfig fc = guardFleet(2, 2);
    fc.stream.fps = 30.0;
    fc.encode_engines = 1;
    fc.guard.admission.policy = guard::AdmissionPolicy::CapacityModel;
    fc.guard.admission.frame_cost_us = 10'000.0;
    fc.guard.admission.headroom = 0.85;
    FleetServer server(fc);

    const guard::AdmissionResult rejected = server.tryAddStream();
    EXPECT_FALSE(rejected.admitted());
    EXPECT_EQ(rejected.outcome, guard::AdmissionOutcome::RejectedCapacity);
    EXPECT_DOUBLE_EQ(rejected.demand_fps, 90.0);
    EXPECT_DOUBLE_EQ(rejected.capacity_fps, 85.0);
    EXPECT_NE(rejected.reason.find("demand"), std::string::npos);

    // The throwing legacy entry point refuses the same verdict.
    EXPECT_THROW(server.addStream(), std::runtime_error);

    // Load drops: one stream leaves pre-run, the candidate now fits.
    ASSERT_TRUE(server.removeStream(1));
    const guard::AdmissionResult admitted = server.tryAddStream();
    ASSERT_TRUE(admitted.admitted());
    EXPECT_DOUBLE_EQ(admitted.demand_fps, 60.0);

    const FleetReport rep = server.run();
    EXPECT_EQ(rep.admission_rejects, 2u);
    EXPECT_EQ(rep.streams_started, 3u);
    // Streams 0 and the replacement ran; stream 1 left before seeding.
    EXPECT_EQ(rep.frames, 4u);
    EXPECT_EQ(rep.errors, 0u);
}

/**
 * Hard-cap admission under saturation churn: a full fleet (max_streams
 * reached, 1+1 engines) refuses joiners with an explicit reason while
 * frames are in flight; a slot freed by removeStream admits the next
 * attempt. Add/remove race the stage workers via the frame sink and the
 * retirement hook — the satellite's removeStream/addStream race case.
 */
TEST(FleetGuard, HardCapRejectsUnderSaturationUntilSlotFrees)
{
    FleetConfig fc = guardFleet(4, 3);
    fc.max_streams = 4;
    fc.encode_engines = 1;
    fc.decode_engines = 1;
    fc.capture_workers = 1;

    FleetServer *server_ptr = nullptr;
    std::atomic<bool> rejected_while_full{false};
    std::atomic<bool> removed{false};
    std::atomic<u32> replacement_id{0};
    fc.frame_sink = [&](StreamContext &s, const PipelineFrameResult &r) {
        // While all four slots are live, a joiner must bounce off the cap.
        if (s.id() == 0 && r.index == 0 &&
            !rejected_while_full.exchange(true)) {
            const guard::AdmissionResult res = server_ptr->tryAddStream();
            EXPECT_FALSE(res.admitted());
            EXPECT_EQ(res.outcome,
                      guard::AdmissionOutcome::RejectedHardCap);
            EXPECT_NE(res.reason.find("max_streams"), std::string::npos);
        }
        if (s.id() == 1 && r.index == 0 && !removed.exchange(true)) {
            EXPECT_TRUE(server_ptr->removeStream(1));
        }
    };
    fc.stream_retired = [&](const FleetStreamReport &sr) {
        // The freed slot admits the joiner that was refused above.
        if (sr.id == 1) {
            const guard::AdmissionResult res = server_ptr->tryAddStream();
            ASSERT_TRUE(res.admitted());
            replacement_id = res.id;
        }
    };
    FleetServer server(fc);
    server_ptr = &server;
    const FleetReport rep = server.run();

    ASSERT_TRUE(rejected_while_full.load());
    ASSERT_TRUE(removed.load());
    EXPECT_EQ(rep.admission_rejects, 1u);
    EXPECT_EQ(rep.streams_started, 5u);
    std::map<u32, FleetStreamReport> by_id;
    for (const auto &s : rep.streams)
        by_id[s.id] = s;
    EXPECT_EQ(by_id.at(1).totals.frames, 1u);
    EXPECT_FALSE(by_id.at(1).completed);
    EXPECT_EQ(by_id.at(replacement_id.load()).totals.frames, 3u);
    EXPECT_TRUE(by_id.at(replacement_id.load()).completed);
    // Conservation across the churn: 3 full streams + 1 cut short + the
    // replacement's full target.
    EXPECT_EQ(rep.frames, 3u * 3u + 1u + 3u);
    EXPECT_EQ(rep.errors, 0u);
}

/**
 * Shedding conservation: with an unserviceable period (1 GHz fps), every
 * frame is past its deadline at dequeue, so the shedder routes all of
 * them through hold-last-good *before* the engine lease. Shed is
 * first-class: every frame is accounted exactly once (report == journal
 * == registry), deadline_misses stays zero (shed ≠ miss), the vision
 * sink sees only decoded frames (shed ≠ delivered), and no traffic is
 * generated because no frame reached the store.
 */
TEST(FleetGuard, ShedAllFramesKeepsAccountingExact)
{
    constexpr u32 kStreams = 3;
    constexpr u32 kFrames = 4;
    obs::ObsContext obs;
    FleetConfig fc = guardFleet(kStreams, kFrames);
    fc.stream.obs = &obs;
    fc.stream.fps = 1e9;
    fc.use_deadlines = true;
    // Keep the ladder out of reach so shedding is the only actor.
    fc.stream.fault.degradation.escalate_after_misses = 1'000'000'000;
    fc.guard.shed.enabled = true;
    fc.guard.shed.slack_ms = 0.0;

    std::atomic<u64> sink_frames{0};
    fc.frame_sink = [&](StreamContext &, const PipelineFrameResult &) {
        sink_frames.fetch_add(1);
    };
    FleetServer server(fc);
    const FleetReport rep = server.run();

    EXPECT_EQ(rep.frames, u64{kStreams} * kFrames);
    EXPECT_EQ(rep.shed_frames, rep.frames);
    EXPECT_EQ(rep.deadline_misses, 0u);
    EXPECT_EQ(rep.errors, 0u);
    // The vision sink delivers decoded frames only; a shed frame is
    // accounted in journal/registry/report instead.
    EXPECT_EQ(sink_frames.load(), 0u);
    EXPECT_EQ(obs.registry().counter("pipeline.shed_frames").value(),
              rep.shed_frames);
    // Encode-point sheds never touch the store: zero model traffic, and
    // every served frame is hold-last-good (kept fraction 0).
    EXPECT_EQ(rep.bytes_written, 0u);
    EXPECT_EQ(rep.metadata_bytes, 0u);
    EXPECT_DOUBLE_EQ(rep.kept_fraction_mean, 0.0);

    u64 per_stream_shed = 0;
    for (const FleetStreamReport &s : rep.streams) {
        EXPECT_EQ(s.totals.shed, s.totals.frames);
        EXPECT_TRUE(s.completed);
        // All-shed streams sit in Degraded (dirty but decoding fine).
        EXPECT_EQ(s.health, guard::HealthState::Degraded);
        per_stream_shed += s.totals.shed;
    }
    EXPECT_EQ(per_stream_shed, rep.shed_frames);
}

/**
 * Decode-point shedding: chaos stalls the store on every batch for far
 * longer than the frame period, so frames pass the encode-point check,
 * get stored, and are past deadline + slack when the decode worker
 * dequeues them. Such a frame paid the write side only: payload plus one
 * copy of the metadata, no read-back, write-only DRAM energy, and region
 * energies that still sum to the frame's DRAM energy.
 */
TEST(FleetGuard, DecodePointShedPaysWriteSideOnly)
{
    constexpr u32 kStreams = 2;
    constexpr u32 kFrames = 6;
    obs::ObsContext obs;
    obs::TelemetrySink sink;
    FleetConfig fc = guardFleet(kStreams, kFrames);
    fc.stream.obs = &obs;
    fc.stream.telemetry = &sink;
    fc.stream.fps = 20.0; // 50 ms period
    fc.use_deadlines = true;
    fc.stream.fault.degradation.escalate_after_misses = 1'000'000'000;
    fc.guard.shed.enabled = true;
    fc.guard.shed.slack_ms = 0.0;
    fc.chaos.enabled = true;
    fc.chaos.queue_burst_rate = 1.0;
    fc.chaos.queue_burst_us = 200'000;

    FleetServer server(fc);
    const FleetReport rep = server.run();
    EXPECT_EQ(rep.frames, u64{kStreams} * kFrames);
    EXPECT_EQ(rep.errors, 0u);

    const EnergyConstants ec;
    u64 journal_shed = 0, stored_shed = 0;
    for (const obs::FrameTelemetry &ft : sink.frames()) {
        if (!ft.shed)
            continue;
        ++journal_shed;
        if (ft.bytes_written == 0)
            continue;
        ++stored_shed;
        EXPECT_EQ(ft.bytes_read, 0u);
        EXPECT_EQ(ft.pixels_kept, ft.bytes_written);
        // The store wrote the payload and one copy of the metadata.
        EXPECT_EQ(ft.metadata_bytes, ft.dram_bytes_written - ft.bytes_written);
        EXPECT_DOUBLE_EQ(ft.energy_dram_nj,
                         static_cast<double>(ft.pixels_kept) *
                             (ec.ddr_comm_crossing_pj + ec.dram_write_pj) /
                             1e3);
        double region_energy_nj = 0.0;
        u64 region_kept = 0;
        for (const obs::RegionTelemetry &rt : ft.regions) {
            region_energy_nj += rt.energy_nj;
            region_kept += rt.pixels_kept;
        }
        EXPECT_EQ(region_kept, ft.pixels_kept);
        EXPECT_NEAR(region_energy_nj, ft.energy_dram_nj,
                    1e-6 * (1.0 + ft.energy_dram_nj));
    }
    EXPECT_GT(stored_shed, 0u);
    EXPECT_EQ(journal_shed, rep.shed_frames);
    EXPECT_EQ(obs.registry().counter("pipeline.shed_frames").value(),
              rep.shed_frames);
    u64 per_stream_shed = 0;
    for (const FleetStreamReport &s : rep.streams)
        per_stream_shed += s.totals.shed;
    EXPECT_EQ(per_stream_shed, rep.shed_frames);
}

/**
 * Watchdog eviction: chaos wedges every decode worker pass for 200 ms
 * while the watchdog evicts any stream whose frame has been in flight
 * for 60 ms. run() must return (no hang), the wedged streams must be
 * evicted with Evicted health, and their in-flight frames must still
 * retire through normal accounting (errors stay zero, per-stream frame
 * counts sum to the fleet total).
 */
TEST(FleetGuard, WatchdogEvictsWedgedStreamsWithoutHang)
{
    FleetConfig fc = guardFleet(2, 5);
    fc.chaos.enabled = true;
    fc.chaos.seed = 7;
    fc.chaos.worker_stall_rate = 1.0;
    fc.chaos.worker_stall_us = 200'000;
    fc.guard.watchdog.enabled = true;
    fc.guard.watchdog.interval_ms = 5;
    fc.guard.watchdog.warn_ms = 15;
    fc.guard.watchdog.quarantine_ms = 30;
    fc.guard.watchdog.evict_ms = 60;

    FleetServer server(fc);
    const FleetReport rep = server.run(); // must terminate

    EXPECT_GE(rep.watchdog_evictions, 1u);
    EXPECT_GE(rep.watchdog_warns, 1u);
    EXPECT_GE(rep.chaos_hits, 1u);
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_LT(rep.streams_completed, 2u);

    u64 per_stream_frames = 0;
    u64 evicted = 0;
    for (const FleetStreamReport &s : rep.streams) {
        per_stream_frames += s.totals.frames;
        if (s.evicted) {
            ++evicted;
            EXPECT_EQ(s.health, guard::HealthState::Evicted);
            EXPECT_FALSE(s.completed);
            // The wedged frame itself still completed and was counted.
            EXPECT_GE(s.totals.frames, 1u);
        }
    }
    EXPECT_EQ(evicted, rep.watchdog_evictions);
    EXPECT_EQ(per_stream_frames, rep.frames);
}

} // namespace
} // namespace rpx::fleet
