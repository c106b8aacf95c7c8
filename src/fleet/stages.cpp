#include "fleet/stages.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "energy/energy_model.hpp"

namespace rpx::fleet {

namespace {

/** The scene image a task was submitted with (referenced or owned). */
const Image &
sceneOf(const FrameTask &task)
{
    return task.scene_ref ? *task.scene_ref : task.scene;
}

obs::ObsContext *
obsOf(const StreamContext &s)
{
    PipelineObs *po = const_cast<StreamContext &>(s).sharedObs();
    return po ? po->context() : nullptr;
}

} // namespace

void
CaptureStage::run(FrameTask &task) const
{
    StreamContext &s = *task.stream;
    const PipelineConfig &cfg = s.config();
    PipelineObs *po = s.sharedObs();
    obs::ObsContext *ctx = obsOf(s);

    task.index = s.acquireFrameIndex();
    task.start = std::chrono::steady_clock::now();
    if (ctx && ctx->trace())
        task.trace_start_us = ctx->trace()->nowUs();

    // Telemetry attribution baselines: stage latencies land in the task's
    // lat_* fields via the stage timers' out_us hooks, and the
    // shared-model deltas (DRAM transactions, encoder cycles) are
    // computed against these snapshots at decode time.
    const bool tele = s.telemetry() != nullptr;
    if (tele) {
        task.dram_before = s.dram().stats();
        task.enc_before = s.encoder().stats();
    }

    // 1. Runtime programs the encoder for this frame. Under degradation
    //    the ladder sheds work first: the region budget shrinks (tail
    //    labels dropped, keeping y-order) and temporal skips coarsen.
    s.runtime().beginFrame();
    std::vector<RegionLabel> labels = s.registers().activeRegions();
    fault::DegradationController *degrade = s.degradation();
    if (degrade && degrade->level() > 0) {
        const size_t keep = std::max<size_t>(
            1, static_cast<size_t>(
                   std::floor(static_cast<double>(labels.size()) *
                              degrade->regionBudgetScale())));
        if (labels.size() > keep)
            labels.resize(keep);
        const i32 boost = degrade->skipBoost();
        for (RegionLabel &l : labels)
            l.skip = std::min<i32>(l.skip + boost, 64);
    }
    s.encoder().setRegionLabels(std::move(labels));

    // 2. Capture: sensor readout (+ CSI transfer) and ISP. On the fast
    //    (sensor-less) path the CSI transfer stands in for the readout and
    //    the gray conversion/resize is the ISP-equivalent work, so both
    //    stages still emit a span per frame.
    const Image &scene = sceneOf(task);
    fault::FaultInjector *injector = s.injector();
    if (cfg.use_sensor_path) {
        if (scene.channels() != 3)
            throwInvalid("sensor path needs an RGB scene frame");
        const KeptRunPlan *plan = nullptr;
        Image *raw = nullptr;
        {
            obs::ScopedStageTimer span(
                ctx, po ? po->h_sensor : nullptr, "sensor_readout",
                "pipeline", obs::TraceLane::Sensor, task.index,
                tele ? &task.lat_sensor : nullptr);
            // The labels are bound, so the frame is planned here: the
            // sensor mosaics only the rows a gray ISP reads, the ISP
            // computes only the pixels the encoder will keep, and the
            // encode stage reuses the same plan. An RGB ISP reads every
            // row, so it gets a dense capture.
            plan = &s.encoder().planFrame(task.index);
            raw = &s.sensor().capture(
                scene,
                s.isp().config().output == IspOutput::Gray ? plan
                                                           : nullptr);
            // With an injector on the link the transfer can drop lines
            // and flip payload bits in the raw mosaic before the ISP.
            task.csi_status =
                injector ? s.csi().transferFrame(*raw, cfg.fps)
                         : s.csi().transferFrame(
                               static_cast<u64>(raw->pixelCount()));
        }
        {
            obs::ScopedStageTimer span(ctx, po ? po->h_isp : nullptr,
                                       "isp", "pipeline",
                                       obs::TraceLane::Isp, task.index,
                                       tele ? &task.lat_isp : nullptr);
            s.isp().processKept(*raw, *plan, task.gray);
        }
    } else {
        {
            obs::ScopedStageTimer span(ctx, po ? po->h_isp : nullptr,
                                       "isp", "pipeline",
                                       obs::TraceLane::Isp, task.index,
                                       tele ? &task.lat_isp : nullptr);
            task.gray = scene.channels() == 1 ? scene : scene.toGray();
            if (task.gray.width() != cfg.width ||
                task.gray.height() != cfg.height)
                task.gray = task.gray.resized(cfg.width, cfg.height);
        }
        obs::ScopedStageTimer span(ctx, po ? po->h_sensor : nullptr,
                                   "sensor_readout", "pipeline",
                                   obs::TraceLane::Sensor, task.index,
                                   tele ? &task.lat_sensor : nullptr);
        task.csi_status =
            injector ? s.csi().transferFrame(task.gray, cfg.fps)
                     : s.csi().transferFrame(
                           static_cast<u64>(task.gray.pixelCount()));
    }
    task.pixels_in = static_cast<u64>(task.gray.pixelCount());
    // The raw scene is not needed past this point; dropping it here keeps
    // a fleet's in-flight memory bounded by gray frames, not RGB scenes.
    task.scene = Image();
    task.scene_ref = nullptr;
}

void
EncodeStage::run(FrameTask &task) const
{
    StreamContext &s = *task.stream;
    PipelineObs *po = s.sharedObs();
    obs::ObsContext *ctx = obsOf(s);
    const bool tele = s.telemetry() != nullptr;

    // 3a. Encode the dense gray frame.
    {
        obs::ScopedStageTimer span(ctx, po ? po->h_encode : nullptr,
                                   "encode", "pipeline",
                                   obs::TraceLane::Encoder, task.index,
                                   tele ? &task.lat_encode : nullptr);
        task.encoded = s.encoder().encodeFrame(task.gray, task.index);
    }
    task.kept = task.encoded.keptFraction();
    task.pixel_bytes = task.encoded.pixelBytes();
    task.metadata_bytes = task.encoded.metadataBytes();
    // The dense frame is consumed; only the packed payload travels on.
    task.gray = Image();
}

void
StoreStage::run(FrameTask &task) const
{
    StreamContext &s = *task.stream;
    PipelineObs *po = s.sharedObs();
    obs::ObsContext *ctx = obsOf(s);
    const bool tele = s.telemetry() != nullptr;

    // 3b. Commit to the framebuffer ring shard in DRAM.
    obs::ScopedStageTimer span(ctx, po ? po->h_dram_write : nullptr,
                               "dram_write", "pipeline",
                               obs::TraceLane::Dram, task.index,
                               tele ? &task.lat_dram_write : nullptr);
    task.store_report = s.store().store(std::move(task.encoded));
}

void
DecodeStage::run(FrameTask &task) const
{
    StreamContext &s = *task.stream;
    const PipelineConfig &cfg = s.config();
    PipelineObs *po = s.sharedObs();
    obs::ObsContext *ctx = obsOf(s);
    const bool tele = s.telemetry() != nullptr;
    PipelineFrameResult &result = task.result;

    // 4. Decode the full frame for the application with the software
    //    decoder, refreshing the stream's decoded-frame cache in place
    //    and copying it out. The PMMU transaction decoder
    //    (RhythmicDecoder) is not a fleet stage: VisionPipeline builds
    //    one over the stream's frame store for per-transaction requests.
    //    The graceful path validates the stored frame and, when it is
    //    quarantined, serves the last good image (or black before any
    //    good frame exists).
    std::vector<const EncodedFrame *> history;
    for (size_t k = 1; k < s.store().size(); ++k)
        history.push_back(s.store().recent(k));
    {
        obs::ScopedStageTimer span(ctx, po ? po->h_decode : nullptr,
                                   "decode", "pipeline",
                                   obs::TraceLane::Decoder, task.index,
                                   tele ? &task.lat_decode : nullptr);
        DecodedFrameCache &cache = s.decodedFrame();
        if (cfg.fault.graceful)
            result.quarantined =
                s.swDecoder()
                    .tryDecode(*s.store().recent(0), history, cache)
                    .quarantined;
        else
            s.swDecoder().decodeInto(*s.store().recent(0), history, cache);
        if (result.quarantined)
            holdLastGood(task);
        else
            result.decoded = cache.image();
    }

    // 4b. Deadline verdict: a real wall-clock overrun (per-pipeline
    //     deadline_ms or the fleet's EDF frame deadline) or an injected
    //     scheduling fault.
    fault::FaultInjector *injector = s.injector();
    if (injector && injector->dropEvent(fault::Stage::Deadline))
        result.deadline_missed = true;
    if (cfg.fault.deadline_ms > 0.0) {
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - task.start)
                .count();
        if (elapsed_ms > cfg.fault.deadline_ms)
            result.deadline_missed = true;
    }
    if (task.has_deadline &&
        std::chrono::steady_clock::now() > task.deadline)
        result.deadline_missed = true;

    accountFrame(task, /*decoded=*/true, /*stored=*/true);
}

void
holdLastGood(FrameTask &task)
{
    StreamContext &s = *task.stream;
    const PipelineConfig &cfg = s.config();
    const DecodedFrameCache &cache = s.decodedFrame();
    task.result.held_last_good = true;
    task.result.decoded =
        cache.holdsFrame()
            ? cache.image()
            : Image(cfg.width, cfg.height, PixelFormat::Gray8, 0);
}

void
accountFrame(FrameTask &task, bool decoded, bool stored)
{
    StreamContext &s = *task.stream;
    const PipelineConfig &cfg = s.config();
    PipelineObs *po = s.sharedObs();
    obs::ObsContext *ctx = obsOf(s);
    const bool tele = s.telemetry() != nullptr;
    const FrameIndex t = task.index;
    PipelineFrameResult &result = task.result;

    result.index = t;
    result.shed = !decoded;
    result.kept_fraction = decoded ? task.kept : 0.0; // a shed is not fresh
    result.csi_dropped_lines = task.csi_status.dropped_lines;
    result.dma_retries = task.store_report.dma_retries;
    result.dma_dropped_bursts = task.store_report.dma_dropped_bursts;
    result.transient_faults =
        task.store_report.dma_retries +
        task.store_report.dma_dropped_bursts +
        (task.csi_status.corrupted_bytes > 0 ? 1 : 0) +
        (task.csi_status.dropped_lines > 0 ? 1 : 0);

    // 5. Frame health drives the degradation ladder. The ladder sees a
    //    shed as a missed frame (the stream is not keeping up), but
    //    result.deadline_missed stays false: the miss counters measure
    //    frames that ran to completion late.
    fault::DegradationController *degrade = s.degradation();
    if (degrade) {
        fault::FrameHealth health;
        health.deadline_missed = result.deadline_missed || !decoded;
        health.decode_quarantined = result.quarantined;
        health.transient_faults =
            static_cast<u32>(result.transient_faults);
        degrade->onFrame(health);
        result.degradation_level = degrade->level();
    }

    // 6. Traffic: the store wrote payload + metadata, and the decoder read
    //    back only the encoded pixels plus the metadata working set. A
    //    shed frame paid the write side if it was stored, nothing if not.
    const Bytes payload = stored ? task.pixel_bytes : 0;
    result.traffic.bytes_written = payload;
    result.traffic.bytes_read = decoded ? payload : 0;
    result.traffic.metadata_bytes =
        (stored ? task.metadata_bytes : 0) +
        (decoded ? task.metadata_bytes : 0);
    result.traffic.footprint = s.store().totalFootprint();
    s.traffic().add(result.traffic);

    // 7. Energy attribution (first-order model, Appendix A.2): sensing and
    //    CSI scale with dense pixels in; everything DRAM-side scales with
    //    kept pixels — a DDR crossing plus the array write for the store,
    //    and another crossing plus the array read for the decode. Computed
    //    only when someone is listening, so the bare pipeline stays at
    //    seed cost.
    const u64 pixels_in = task.pixels_in;
    const u64 kept_pixels = static_cast<u64>(payload); // 1 B per pixel
    const EnergyConstants ec;
    const double dram_nj_per_px =
        ((stored ? ec.ddr_comm_crossing_pj + ec.dram_write_pj : 0.0) +
         (decoded ? ec.ddr_comm_crossing_pj + ec.dram_read_pj : 0.0)) /
        1e3;
    double e_sense_nj = 0.0, e_csi_nj = 0.0, e_dram_nj = 0.0;
    if (tele || (po && po->attached())) {
        e_sense_nj = ec.sense_pj * static_cast<double>(pixels_in) / 1e3;
        e_csi_nj = ec.csi_pj * static_cast<double>(pixels_in) / 1e3;
        e_dram_nj = dram_nj_per_px * static_cast<double>(kept_pixels);
        if (po)
            po->addEnergy(e_sense_nj, e_csi_nj, e_dram_nj);
    }

    if (po && po->attached()) {
        po->frames->inc();
        po->bytes_written->add(result.traffic.bytes_written);
        po->bytes_read->add(result.traffic.bytes_read);
        po->metadata_bytes->add(result.traffic.metadata_bytes);
        if (result.quarantined)
            po->quarantined->inc();
        if (result.deadline_missed)
            po->deadline_misses->inc();
        if (result.shed)
            po->shed_frames->inc();
        po->transient_faults->add(result.transient_faults);
        po->dma_retries->add(result.dma_retries);
        po->dma_dropped_bursts->add(result.dma_dropped_bursts);
        po->kept_fraction->set(result.kept_fraction);
        po->footprint->set(
            static_cast<double>(result.traffic.footprint));
    }

    if (obs::TelemetrySink *sink = s.telemetry()) {
        obs::FrameTelemetry ft;
        ft.index = static_cast<u64>(t);
        ft.stream = cfg.stream_label;
        ft.sensor_us = task.lat_sensor;
        ft.isp_us = task.lat_isp;
        ft.encode_us = task.lat_encode;
        ft.dram_write_us = task.lat_dram_write;
        ft.decode_us = task.lat_decode;
        ft.total_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - task.start)
                          .count();

        ft.pixels_in = pixels_in;
        ft.pixels_kept = kept_pixels;
        ft.bytes_written = result.traffic.bytes_written;
        ft.bytes_read = result.traffic.bytes_read;
        ft.metadata_bytes = result.traffic.metadata_bytes;

        const DramStats &ds = s.dram().stats();
        ft.dram_write_transactions =
            ds.write_transactions - task.dram_before.write_transactions;
        ft.dram_read_transactions =
            ds.read_transactions - task.dram_before.read_transactions;
        ft.dram_bytes_written =
            ds.bytes_written - task.dram_before.bytes_written;
        ft.dram_bytes_read = ds.bytes_read - task.dram_before.bytes_read;

        const EncoderStats &es = s.encoder().stats();
        ft.compare_cycles =
            es.compare_cycles - task.enc_before.compare_cycles;
        ft.stream_cycles =
            es.stream_cycles - task.enc_before.stream_cycles;
        ft.region_comparisons =
            es.region_comparisons - task.enc_before.region_comparisons;

        ft.quarantined = result.quarantined;
        ft.held_last_good = result.held_last_good;
        ft.deadline_missed = result.deadline_missed;
        ft.shed = result.shed;
        ft.csi_dropped_lines = result.csi_dropped_lines;
        ft.transient_faults = result.transient_faults;
        ft.dma_retries = result.dma_retries;
        ft.dma_dropped_bursts = result.dma_dropped_bursts;
        ft.degradation_level = result.degradation_level;

        ft.energy_sense_nj = e_sense_nj;
        ft.energy_csi_nj = e_csi_nj;
        ft.energy_dram_nj = e_dram_nj;
        ft.energy_total_nj = e_sense_nj + e_csi_nj + e_dram_nj;

        // Per-region attribution exists once the frame was stored: the
        // encoder's label list for this frame (post-degradation; one frame
        // in flight per stream) with the work its attribution pass
        // claimed. DRAM-path energy splits across regions by kept pixels,
        // so the region energies sum exactly to the frame's energy_dram_nj.
        if (stored) {
            const std::vector<RegionLabel> &labels =
                s.encoder().regionLabels();
            const RegionAttribution &attr =
                s.encoder().lastFrameAttribution();
            ft.regions.reserve(labels.size());
            for (size_t i = 0; i < labels.size(); ++i) {
                const RegionLabel &l = labels[i];
                obs::RegionTelemetry rt;
                rt.x = l.x;
                rt.y = l.y;
                rt.w = l.w;
                rt.h = l.h;
                rt.stride = l.stride;
                rt.skip = l.skip;
                rt.active = l.activeAt(t);
                if (i < attr.kept.size()) {
                    rt.pixels_kept = attr.kept[i];
                    rt.comparisons = attr.comparisons[i];
                }
                rt.payload_bytes = rt.pixels_kept; // Gray8: 1 B per pixel
                rt.energy_nj =
                    dram_nj_per_px * static_cast<double>(rt.pixels_kept);
                ft.regions.push_back(std::move(rt));
            }
        }
        sink->record(ft);
    }

    // Frame-latency accounting: the legacy frame span, recorded manually
    // because the frame no longer lives inside one scope.
    double frame_us;
    if (ctx && ctx->trace()) {
        obs::TraceRecorder *tr = ctx->trace();
        frame_us = tr->nowUs() - task.trace_start_us;
        tr->record({"frame", "pipeline", task.trace_start_us, frame_us,
                    static_cast<u32>(obs::TraceLane::Pipeline),
                    static_cast<i64>(t)});
    } else {
        frame_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - task.start)
                       .count();
    }
    if (po && po->h_frame)
        po->h_frame->record(frame_us);
}

void
runFrameInline(FrameTask &task)
{
    CaptureStage{}.run(task);
    EncodeStage{}.run(task);
    StoreStage{}.run(task);
    DecodeStage{}.run(task);
}

} // namespace rpx::fleet
