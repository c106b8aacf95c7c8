/**
 * @file
 * obs v2 telemetry attribution: the conservation contracts.
 *
 * The attribution layer is only trustworthy if it never invents or loses
 * work, so these tests pin three layers of bookkeeping to each other:
 *  - encoder RegionAttribution sums exactly equal the encoder's own
 *    aggregate stats;
 *  - pipeline FrameTelemetry region entries sum to the frame fields, and
 *    TelemetrySink totals reconcile with the PerfRegistry counters the
 *    pipeline maintains independently;
 *  - the JSONL journal round-trips losslessly (write -> parse -> equal),
 *    including under fault injection where quarantined frames must still
 *    be attributed rather than dropped.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "frame/draw.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "sim/pipeline.hpp"

namespace rpx {
namespace {

Image
noisyFrame(i32 w, i32 h, u64 seed)
{
    Image img(w, h);
    Rng rng(seed);
    fillValueNoise(img, rng, 20.0, 15, 235);
    return img;
}

/** Overlapping mixed-rhythm labels exercising every encoder mode. */
std::vector<RegionLabel>
mixedLabels(i32 w, i32 h)
{
    std::vector<RegionLabel> labels = {
        {4, 4, 40, 30, 1, 1, 0},       // dense foreground
        {20, 10, 48, 40, 2, 2, 1},     // overlaps the foreground
        {0, 0, w, h, 4, 3, 0},         // coarse full-frame periphery
        {w - 30, h - 24, 28, 20, 3, 1, 0},
    };
    sortRegionsByY(labels);
    return labels;
}

u64
sum(const std::vector<u64> &v)
{
    return std::accumulate(v.begin(), v.end(), u64{0});
}

// ---------------------------------------------------------------------------
// Encoder-level attribution conservation

TEST(RegionAttribution, SumsMatchEncoderStatsEveryFrame)
{
    const i32 w = 96, h = 72;
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(mixedLabels(w, h));
    enc.enableRegionAttribution(true);

    EncoderStats prev;
    for (FrameIndex t = 0; t < 8; ++t) {
        const EncodedFrame ef = enc.encodeFrame(noisyFrame(w, h, 7 + t), t);
        const RegionAttribution &attr = enc.lastFrameAttribution();
        ASSERT_EQ(attr.kept.size(), enc.regionLabels().size());

        const EncoderStats &now = enc.stats();
        // Every kept pixel and every comparison is attributed to exactly
        // one region: the per-region sums equal this frame's deltas.
        EXPECT_EQ(sum(attr.kept), now.pixels_encoded - prev.pixels_encoded)
            << "frame " << t;
        EXPECT_EQ(sum(attr.comparisons),
                  now.region_comparisons - prev.region_comparisons)
            << "frame " << t;
        EXPECT_EQ(sum(attr.kept), ef.pixels.size()) << "frame " << t;
        prev = now;
    }
}

TEST(RegionAttribution, DisabledLeavesNoTrace)
{
    const i32 w = 64, h = 48;
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(mixedLabels(w, h));
    enc.encodeFrame(noisyFrame(w, h, 3), 0);
    EXPECT_TRUE(enc.lastFrameAttribution().empty());
}

// ---------------------------------------------------------------------------
// Pipeline-level telemetry conservation

TEST(PipelineTelemetry, RegionSumsAndRegistryReconcile)
{
    const i32 w = 96, h = 64;
    constexpr int kFrames = 10;

    obs::ObsContext ctx;
    obs::TelemetrySink sink;
    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.obs = &ctx;
    pc.telemetry = &sink;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(mixedLabels(w, h));

    for (int t = 0; t < kFrames; ++t)
        pipeline.processFrame(noisyFrame(w, h, 40 + t));

    const std::vector<obs::FrameTelemetry> frames = sink.frames();
    ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));

    for (const obs::FrameTelemetry &ft : frames) {
        u64 kept = 0, comparisons = 0;
        double region_energy_nj = 0.0;
        Bytes payload = 0;
        for (const obs::RegionTelemetry &rt : ft.regions) {
            kept += rt.pixels_kept;
            comparisons += rt.comparisons;
            region_energy_nj += rt.energy_nj;
            payload += rt.payload_bytes;
        }
        EXPECT_EQ(kept, ft.pixels_kept) << "frame " << ft.index;
        EXPECT_EQ(comparisons, ft.region_comparisons)
            << "frame " << ft.index;
        EXPECT_EQ(payload, ft.bytes_written) << "frame " << ft.index;
        EXPECT_NEAR(region_energy_nj, ft.energy_dram_nj,
                    1e-6 * (1.0 + ft.energy_dram_nj))
            << "frame " << ft.index;
        EXPECT_NEAR(ft.energy_total_nj,
                    ft.energy_sense_nj + ft.energy_csi_nj +
                        ft.energy_dram_nj,
                    1e-9);
    }

    // Sink totals reconcile with the PerfRegistry counters the pipeline
    // maintains independently of the telemetry path.
    const obs::TelemetryTotals totals = sink.totals();
    const auto counter = [&](const char *name) {
        return static_cast<u64>(ctx.registry().counter(name).value());
    };
    EXPECT_EQ(totals.frames, counter("pipeline.frames"));
    EXPECT_EQ(totals.bytes_written, counter("pipeline.bytes_written"));
    EXPECT_EQ(totals.bytes_read, counter("pipeline.bytes_read"));
    EXPECT_EQ(totals.metadata_bytes, counter("pipeline.metadata_bytes"));
    EXPECT_EQ(totals.quarantined_frames,
              counter("pipeline.quarantined_frames"));
    EXPECT_EQ(totals.deadline_misses, counter("pipeline.deadline_misses"));
    EXPECT_EQ(totals.transient_faults,
              counter("pipeline.transient_faults"));
    EXPECT_NEAR(totals.energy_total_nj,
                ctx.registry().gauge("pipeline.energy_total_nj").value(),
                1e-6 * (1.0 + totals.energy_total_nj));
}

TEST(PipelineTelemetry, JournalRoundTripsThroughJsonl)
{
    const i32 w = 80, h = 60;
    obs::TelemetrySink sink;
    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.telemetry = &sink;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(mixedLabels(w, h));
    for (int t = 0; t < 4; ++t)
        pipeline.processFrame(noisyFrame(w, h, 90 + t));

    for (const obs::FrameTelemetry &ft : sink.frames()) {
        const std::string line = obs::writeFrameJson(ft);
        const obs::FrameTelemetry back =
            obs::frameFromJson(json::parse(line));
        EXPECT_EQ(back.index, ft.index);
        EXPECT_EQ(back.pixels_in, ft.pixels_in);
        EXPECT_EQ(back.pixels_kept, ft.pixels_kept);
        EXPECT_EQ(back.bytes_written, ft.bytes_written);
        EXPECT_EQ(back.bytes_read, ft.bytes_read);
        EXPECT_EQ(back.metadata_bytes, ft.metadata_bytes);
        EXPECT_EQ(back.dram_write_transactions,
                  ft.dram_write_transactions);
        EXPECT_EQ(back.dram_read_transactions, ft.dram_read_transactions);
        EXPECT_EQ(back.compare_cycles, ft.compare_cycles);
        EXPECT_EQ(back.stream_cycles, ft.stream_cycles);
        EXPECT_EQ(back.region_comparisons, ft.region_comparisons);
        EXPECT_EQ(back.quarantined, ft.quarantined);
        EXPECT_EQ(back.degradation_level, ft.degradation_level);
        EXPECT_DOUBLE_EQ(back.total_us, ft.total_us);
        EXPECT_DOUBLE_EQ(back.energy_total_nj, ft.energy_total_nj);
        ASSERT_EQ(back.regions.size(), ft.regions.size());
        for (size_t i = 0; i < ft.regions.size(); ++i) {
            EXPECT_EQ(back.regions[i].x, ft.regions[i].x);
            EXPECT_EQ(back.regions[i].w, ft.regions[i].w);
            EXPECT_EQ(back.regions[i].stride, ft.regions[i].stride);
            EXPECT_EQ(back.regions[i].active, ft.regions[i].active);
            EXPECT_EQ(back.regions[i].pixels_kept,
                      ft.regions[i].pixels_kept);
            EXPECT_EQ(back.regions[i].comparisons,
                      ft.regions[i].comparisons);
            EXPECT_DOUBLE_EQ(back.regions[i].energy_nj,
                             ft.regions[i].energy_nj);
        }
    }
}

/**
 * Journal bytes are a compatibility surface: the same record must always
 * serialise to the same line, fractional and guard-era fields included.
 */
TEST(PipelineTelemetry, JournalLineBytesArePinned)
{
    obs::FrameTelemetry f;
    f.index = 7;
    f.stream = "s3";
    f.sensor_us = 12.5;
    f.isp_us = 0.1;
    f.encode_us = 1403461.25;
    f.dram_write_us = 3.0;
    f.decode_us = 2.0 / 3.0;
    f.total_us = 1403479.5;
    f.pixels_in = 6144;
    f.pixels_kept = 1536;
    f.bytes_written = 1536;
    f.bytes_read = 1024;
    f.metadata_bytes = 96;
    f.dram_write_transactions = 24;
    f.dram_read_transactions = 16;
    f.dram_bytes_written = 1536;
    f.dram_bytes_read = 1024;
    f.compare_cycles = 3072;
    f.stream_cycles = 6144;
    f.region_comparisons = 12288;
    f.deadline_missed = true;
    f.shed = true;
    f.transient_faults = 1;
    f.dma_retries = 2;
    f.degradation_level = 1;
    f.energy_sense_nj = 1234.5;
    f.energy_csi_nj = 0.3;
    f.energy_dram_nj = 1e-9;
    f.energy_total_nj = 1e17;
    obs::RegionTelemetry r;
    r.x = 4;
    r.y = 8;
    r.w = 32;
    r.h = 24;
    r.stride = 2;
    r.skip = 1;
    r.active = true;
    r.pixels_kept = 192;
    r.comparisons = 768;
    r.payload_bytes = 192;
    r.energy_nj = 7.25;
    f.regions.push_back(r);

    EXPECT_EQ(
        obs::writeFrameJson(f),
        "{\"schema\":\"rpx-frame-telemetry-v1\",\"frame\":7,\"stream\":"
        "\"s3\",\"lat_us\":{\"sensor\":12.5,\"isp\":0.10000000000000001,"
        "\"encode\":1403461.25,\"dram_write\":3,\"decode\":"
        "0.66666666666666663,\"total\":1403479.5},\"pixels\":{\"in\":6144,"
        "\"kept\":1536},\"bytes\":{\"written\":1536,\"read\":1024,"
        "\"metadata\":96},\"dram\":{\"write_tx\":24,\"read_tx\":16,"
        "\"bytes_written\":1536,\"bytes_read\":1024},\"cycles\":{"
        "\"compare\":3072,\"stream\":6144},\"comparisons\":12288,"
        "\"health\":{\"quarantined\":false,\"held_last_good\":false,"
        "\"deadline_missed\":true,\"shed\":true,\"csi_dropped_lines\":0,"
        "\"transient_faults\":1,\"dma_retries\":2,\"degradation_level\":1},"
        "\"energy_nj\":{\"sense\":1234.5,\"csi\":0.29999999999999999,"
        "\"dram\":1.0000000000000001e-09,\"total\":1e+17},\"regions\":[{"
        "\"x\":4,\"y\":8,\"w\":32,\"h\":24,\"stride\":2,\"skip\":1,"
        "\"active\":true,\"kept\":192,\"comparisons\":768,"
        "\"payload_bytes\":192,\"energy_nj\":7.25}]}");
}

TEST(PipelineTelemetry, JournalFileHoldsOneLinePerFrame)
{
    const i32 w = 64, h = 48;
    const std::string path =
        testing::TempDir() + "telemetry_journal_test.jsonl";
    std::remove(path.c_str());
    constexpr int kFrames = 5;
    {
        obs::TelemetrySink::Config tc;
        tc.journal_path = path;
        tc.keep_frames = 0; // journal-only: the ring retains nothing
        obs::TelemetrySink sink(tc);
        PipelineConfig pc;
        pc.width = w;
        pc.height = h;
        pc.telemetry = &sink;
        VisionPipeline pipeline(pc);
        pipeline.runtime().setRegionLabels(mixedLabels(w, h));
        for (int t = 0; t < kFrames; ++t)
            pipeline.processFrame(noisyFrame(w, h, 200 + t));
        EXPECT_TRUE(sink.frames().empty());
        EXPECT_EQ(sink.totals().frames, static_cast<u64>(kFrames));
        sink.flush();
    }
    const std::vector<obs::FrameTelemetry> journal =
        obs::readJournalFile(path);
    ASSERT_EQ(journal.size(), static_cast<size_t>(kFrames));
    for (int t = 0; t < kFrames; ++t)
        EXPECT_EQ(journal[static_cast<size_t>(t)].index,
                  static_cast<u64>(t));
    std::remove(path.c_str());
}

TEST(PipelineTelemetry, RingEvictsOldestButTotalsKeepEverything)
{
    const i32 w = 64, h = 48;
    obs::TelemetrySink::Config tc;
    tc.keep_frames = 3;
    obs::TelemetrySink sink(tc);
    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.telemetry = &sink;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(mixedLabels(w, h));
    for (int t = 0; t < 7; ++t)
        pipeline.processFrame(noisyFrame(w, h, 300 + t));

    const auto frames = sink.frames();
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames.front().index, 4u);
    EXPECT_EQ(frames.back().index, 6u);
    EXPECT_EQ(sink.totals().frames, 7u);
}

TEST(PipelineTelemetry, FaultInjectionFramesStayAttributed)
{
    const i32 w = 64, h = 48;
    constexpr int kFrames = 30;

    fault::FaultPlan plan = fault::FaultPlan::uniform(5e-3, 0xBEEF);
    obs::ObsContext ctx;
    obs::TelemetrySink sink;
    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.obs = &ctx;
    pc.telemetry = &sink;
    pc.fault.crc_metadata = true;
    pc.fault.graceful = true;
    pc.fault.plan = &plan;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels(mixedLabels(w, h));

    u64 quarantined = 0;
    for (int t = 0; t < kFrames; ++t)
        quarantined += pipeline.processFrame(noisyFrame(w, h, 500 + t))
                           .quarantined;

    // A quarantined frame is an outcome, not a gap: every processed frame
    // has a record, and the fault tallies reconcile with the registry.
    const obs::TelemetryTotals totals = sink.totals();
    EXPECT_EQ(totals.frames, static_cast<u64>(kFrames));
    EXPECT_EQ(totals.quarantined_frames, quarantined);
    EXPECT_EQ(totals.quarantined_frames,
              static_cast<u64>(ctx.registry()
                                   .counter("pipeline.quarantined_frames")
                                   .value()));
    u64 recorded_quarantined = 0;
    for (const obs::FrameTelemetry &ft : sink.frames()) {
        recorded_quarantined += ft.quarantined ? 1 : 0;
        u64 kept = 0;
        for (const obs::RegionTelemetry &rt : ft.regions)
            kept += rt.pixels_kept;
        EXPECT_EQ(kept, ft.pixels_kept) << "frame " << ft.index;
    }
    EXPECT_EQ(recorded_quarantined, quarantined);
}

} // namespace
} // namespace rpx
