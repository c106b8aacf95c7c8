/**
 * @file
 * Workload fleet_many_small: 256 streams of 96x64 gray frames through
 * FleetServer with one capture, one encode, one store and one decode
 * worker (one engine per pool). Each stream has its own seeded fovea
 * position over a stride-4, skip-2 periphery. Closed loop: 256 clients
 * with one frame in flight each; EDF on with 5 fps deadlines that never
 * bind; guard off.
 *
 * A run is a sequence of rounds; each round builds a fresh FleetServer
 * (one set-up sample) and serves a fixed number of frames per stream.
 * The benchmark stamps every frame itself: submission in scene_source,
 * delivery in frame_sink (decoded frames) or at the stream's next
 * submission or retirement (frames the guard shed).
 *
 * The traced run adds the single-threaded stage baseline of the same
 * streams and one overload probe round (22 fps per stream, shedding on)
 * that measures the guard layer.
 */

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

namespace {

constexpr u32 kStreams = 256;
constexpr i32 kWidth = 96;
constexpr i32 kHeight = 64;
constexpr i32 kFoveaW = 32;
constexpr i32 kFoveaH = 24;
constexpr u64 kScenePool = 64;

struct Workload {
    double fps;
    u32 frames_per_stream;
    bool shed; //!< guard sheds frames past their deadline (zero slack)
};

/** Closed loop with 5 fps deadlines that never bind; guard off. */
constexpr Workload kManySmall{5.0, 40, false};
/** 22 fps per stream: 5632 frames/s offered, about 1.5x capacity. */
constexpr Workload kOverloadProbe{22.0, 66, true};

/** What the workload feeds every round. */
struct Inputs {
    std::vector<rpx::Image> scenes;
    std::vector<std::vector<rpx::RegionLabel>> labels; //!< per stream
    std::vector<rpx::Rect> fovea;                      //!< per stream

    const rpx::Image &scene(u32 id, u64 n) const
    {
        return scenes[(id * 7 + n) % kScenePool];
    }
};

Inputs
makeInputs(u64 seed)
{
    Inputs in;
    for (u64 k = 0; k < kScenePool; ++k)
        in.scenes.push_back(makeGrayScene(seed, k, kWidth, kHeight));
    rpx::Rng rng(seed);
    for (u32 id = 0; id < kStreams; ++id) {
        // On the periphery's 4-pixel grid: the kept-pixel count does not
        // depend on where the fovea sits.
        const i32 fx = static_cast<i32>(
            4 * rng.uniformInt(0, (kWidth - kFoveaW) / 4));
        const i32 fy = static_cast<i32>(
            4 * rng.uniformInt(0, (kHeight - kFoveaH) / 4));
        in.fovea.push_back(rpx::Rect{fx, fy, kFoveaW, kFoveaH});
        in.labels.push_back(
            fovealLabels(kWidth, kHeight, fx, fy, kFoveaW, kFoveaH));
    }
    return in;
}

rpx::PipelineConfig
streamConfig(const Workload &w)
{
    rpx::PipelineConfig pc;
    pc.width = kWidth;
    pc.height = kHeight;
    pc.fps = w.fps;
    return pc;
}

/** Per-stream record of one round, written only by the thread that
 *  holds the stream's single in-flight frame. */
struct StreamTrack {
    std::vector<Clock::time_point> submit;
    std::vector<Clock::time_point> delivered;
    std::vector<u8> sunk;  //!< reached frame_sink (decoded)
    std::vector<u8> fresh; //!< decoded fresh (not held, not quarantined)
    std::vector<u8> late;  //!< served after its deadline
    std::vector<u32> crc;
    u64 bytes_written = 0;
    u64 bytes_read = 0;
    u64 metadata_bytes = 0;
    double energy_uj = 0.0;
    double history_fills = 0.0;
    u64 oracle_failures = 0;

    explicit StreamTrack(u32 frames)
        : submit(frames), delivered(frames), sunk(frames, 0),
          fresh(frames, 0), late(frames, 0), crc(frames, 0)
    {
    }
};

/** How often the probe is read while fleet threads work. */
constexpr std::chrono::milliseconds kProbePeriod{50};

/** Everything one round measured. */
struct Round {
    double setup_s = 0.0;
    double run_s = 0.0;
    /**
     * Median probe reading while the round ran (ProbeSampler); the
     * round's times divided by it are at the reference host speed.
     */
    double slowdown = 1.0;
    Clock::time_point run_start;
    Clock::time_point run_end;
    rpx::fleet::FleetReport report;
    std::vector<StreamTrack> tracks;
    Clock::time_point epoch;
};

/**
 * Oracle for a decoded frame: every pixel the labels sample on frame n
 * (the whole fovea; the periphery's 4-pixel grid on even frames) equals
 * the scene.
 */
bool
sampledPixelsMatch(const rpx::Image &decoded, const rpx::Image &scene,
                   const rpx::Rect &fovea, u64 n)
{
    for (i32 y = fovea.y; y < fovea.y + fovea.h; ++y) {
        const rpx::u8 *a = decoded.row(y) + fovea.x;
        const rpx::u8 *b = scene.row(y) + fovea.x;
        if (!std::equal(a, a + fovea.w, b))
            return false;
    }
    if (n % 2 == 0)
        for (i32 y = 0; y < kHeight; y += 4)
            for (i32 x = 0; x < kWidth; x += 4)
                if (decoded.row(y)[x] != scene.row(y)[x])
                    return false;
    return true;
}

/** One round: build a fleet (timed set-up), serve, and join. */
Round
runRound(const Workload &w, const Inputs &in,
         rpx::obs::TelemetrySink *telemetry)
{
    Round round;
    const u32 frames = w.frames_per_stream;
    round.tracks.assign(kStreams, StreamTrack(frames));
    std::vector<StreamTrack> &tracks = round.tracks;

    rpx::fleet::FleetConfig fc;
    fc.stream = streamConfig(w);
    fc.stream.telemetry = telemetry;
    fc.streams = kStreams;
    fc.frames_per_stream = frames;
    fc.encode_engines = 1;
    fc.decode_engines = 1;
    fc.capture_workers = 1;
    fc.encode_workers = 1;
    fc.decode_workers = 1;
    fc.use_deadlines = true;
    fc.guard.shed.enabled = w.shed;
    fc.guard.shed.slack_ms = 0.0;
    fc.label_source = [&in](u32 id) { return in.labels[id]; };
    fc.scene_source = [&in, &tracks](u32 id, u64 n) {
        StreamTrack &t = tracks[id];
        const auto now = Clock::now();
        t.submit[n] = now;
        if (n > 0 && !t.sunk[n - 1])
            t.delivered[n - 1] = now; // shed or errored: completes here
        return in.scene(id, n);
    };
    // Under shedding the degradation ladder may trim labels, so the pixel
    // oracle runs where deadlines never bind.
    const bool oracle = !w.shed;
    fc.frame_sink = [&in, &tracks, oracle](rpx::fleet::StreamContext &ctx,
                                           const rpx::PipelineFrameResult &r) {
        const auto now = Clock::now();
        const u32 id = ctx.id();
        const size_t n = static_cast<size_t>(r.index);
        StreamTrack &t = tracks[id];
        t.delivered[n] = now;
        t.sunk[n] = 1;
        t.fresh[n] = !r.shed && !r.held_last_good && !r.quarantined;
        t.late[n] = r.deadline_missed;
        t.crc[n] = imageCrc(r.decoded);
        t.bytes_written += r.traffic.bytes_written;
        t.bytes_read += r.traffic.bytes_read;
        t.metadata_bytes += r.traffic.metadata_bytes;
        t.energy_uj += frameEnergyUj(r.decoded.pixelCount(),
                                     r.traffic.bytes_written,
                                     r.traffic.bytes_read);
        t.history_fills +=
            static_cast<double>(ctx.swDecoder().lastHistoryFills());
        if (oracle && t.fresh[n] &&
            !sampledPixelsMatch(r.decoded, in.scene(id, n), in.fovea[id], n))
            ++t.oracle_failures;
    };
    fc.stream_retired = [&tracks](const rpx::fleet::FleetStreamReport &sr) {
        StreamTrack &t = tracks[sr.id];
        const size_t last = t.delivered.size() - 1;
        if (!t.sunk[last])
            t.delivered[last] = Clock::now();
    };

    ProbeSampler probe(kProbePeriod);
    const auto t0 = Clock::now();
    rpx::fleet::FleetServer server(fc);
    round.run_start = Clock::now();
    round.setup_s = secondsBetween(t0, round.run_start);
    round.report = server.run();
    round.run_end = Clock::now();
    round.run_s = secondsBetween(round.run_start, round.run_end);
    round.slowdown = probe.stop();
    round.epoch = tracks[0].submit[0];
    for (const StreamTrack &t : tracks)
        round.epoch = std::min(round.epoch, t.submit[0]);
    return round;
}

/** Due time of frame n: epoch + n / fps. */
Clock::time_point
dueTime(const Workload &w, const Round &r, size_t n)
{
    return r.epoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(n / w.fps));
}

/** Counts a round's frames and checks them against the FleetReport. */
struct Tally {
    u64 frames = 0;
    u64 sunk = 0;
    u64 fresh_on_time = 0;
    u64 late = 0;
    u64 bytes_written = 0;
    u64 bytes_read = 0;
    u64 metadata_bytes = 0;
    double energy_uj = 0.0;
    double history_fills = 0.0;
    u64 oracle_failures = 0;
    std::vector<u32> stream_crcs;
};

Tally
tally(const Round &r)
{
    Tally t;
    for (const StreamTrack &s : r.tracks) {
        for (size_t n = 0; n < s.sunk.size(); ++n) {
            ++t.frames;
            t.sunk += s.sunk[n];
            t.late += s.late[n];
            t.fresh_on_time += s.fresh[n] && !s.late[n];
        }
        t.bytes_written += s.bytes_written;
        t.bytes_read += s.bytes_read;
        t.metadata_bytes += s.metadata_bytes;
        t.energy_uj += s.energy_uj;
        t.history_fills += s.history_fills;
        t.oracle_failures += s.oracle_failures;
        t.stream_crcs.push_back(foldCrcs(s.crc));
    }
    return t;
}

void
checkRound(const Workload &w, const Round &r, const Tally &t, Result &out)
{
    const rpx::fleet::FleetReport &rep = r.report;
    const u64 expected = u64{kStreams} * w.frames_per_stream;
    auto fail = [&out](const std::string &what) { out.problem(what); };
    if (rep.frames != expected || t.frames != expected)
        fail("frames served " + std::to_string(rep.frames) + " != " +
             std::to_string(expected));
    if (t.sunk + rep.shed_frames + rep.errors != rep.frames)
        fail("delivered + shed + errored != frames served");
    if (t.late != rep.deadline_misses)
        fail("late frames disagree with the fleet report");
    if (t.bytes_read != rep.bytes_read)
        fail("decoded bytes disagree with the fleet report");
    if (rep.streams_completed != kStreams)
        fail("not every stream completed");
    if (t.oracle_failures > 0)
        fail(std::to_string(t.oracle_failures) +
             " decoded frames differ from their scenes at sampled pixels");
    if (!w.shed && (rep.shed_frames != 0 || rep.deadline_misses != 0))
        fail("deadlines bound on the closed-loop workload");
    out.attempted += rep.frames;
    out.failed += rep.errors + rep.quarantined;
}

std::string
modelTotals(const Tally &t)
{
    return "frames=" + std::to_string(t.frames) +
           " bytes_written=" + std::to_string(t.bytes_written) +
           " bytes_read=" + std::to_string(t.bytes_read) +
           " metadata_bytes=" + std::to_string(t.metadata_bytes);
}

/**
 * The same streams and frames run on one thread through the stage
 * objects: the stream-processing baseline the fleet's threads are
 * measured against. Returns frames per second at the reference host
 * speed; the decoded frames must match the fleet's per-stream
 * fingerprints when deadlines never bind.
 */
double
runSerial(const Workload &w, const Inputs &in, SpanRecorder &spans,
          std::vector<u32> &stream_crcs)
{
    rpx::fleet::PipelineObs shared(nullptr);
    std::vector<std::unique_ptr<rpx::fleet::StreamContext>> ctxs;
    for (u32 id = 0; id < kStreams; ++id) {
        rpx::PipelineConfig pc = streamConfig(w);
        pc.stream_label.assign(1, 's'); // as the fleet labels streams
        pc.stream_label += std::to_string(id);
        auto ctx = std::make_unique<rpx::fleet::StreamContext>(
            pc, &shared, /*force_degradation=*/true);
        ctx->setId(id);
        ctx->runtime().setRegionLabels(in.labels[id]);
        ctxs.push_back(std::move(ctx));
    }
    std::vector<std::vector<u32>> crcs(kStreams);
    ProbeSampler probe(kProbePeriod);
    const auto start = Clock::now();
    i64 frame = 0;
    for (u32 n = 0; n < w.frames_per_stream; ++n)
        for (u32 id = 0; id < kStreams; ++id, ++frame)
            crcs[id].push_back(imageCrc(
                runStagesTraced(*ctxs[id], in.scene(id, n), spans, frame)
                    .decoded));
    const double secs = secondsBetween(start, Clock::now());
    const double slowdown = probe.stop();
    for (const std::vector<u32> &c : crcs)
        stream_crcs.push_back(foldCrcs(c));
    return static_cast<double>(frame) * slowdown / secs;
}

/** Rounds of `w` until `budget_s` since `start` is nearly spent. */
template <typename PerRound>
void
serveRounds(const Workload &w, const Inputs &in, Clock::time_point start,
            double budget_s, bool journal, Result &out, PerRound &&each)
{
    double last_s = 0.0;
    do {
        rpx::obs::TelemetrySink::Config tc;
        tc.keep_frames = u64{kStreams} * w.frames_per_stream;
        rpx::obs::TelemetrySink sink(tc);
        const auto a = Clock::now();
        const Round r = runRound(w, in, journal ? &sink : nullptr);
        last_s = secondsBetween(a, Clock::now());
        const Tally t = tally(r);
        checkRound(w, r, t, out);
        each(r, t, sink);
        // Start another round only if most of it fits in the budget.
    } while (secondsBetween(start, Clock::now()) + last_s / 2 < budget_s);
}

} // namespace

void
runFleetManySmall(const Options &opt, Result &out)
{
    const Workload w = kManySmall;
    const Inputs in = makeInputs(opt.seed);
    const auto start = Clock::now();

    // Times of a round are divided by its probe reading (Round::slowdown).
    std::vector<double> setup, fps, latency_ms, slowdown;
    std::vector<std::vector<double>> round_latency_ms;
    std::vector<Tally> tallies;
    double frames = 0.0, wall_s = 0.0;
    serveRounds(w, in, start, opt.trace ? opt.seconds / 4 : opt.seconds,
                false, out,
                [&](const Round &r, const Tally &t,
                    const rpx::obs::TelemetrySink &) {
                    setup.push_back(r.setup_s / r.slowdown);
                    fps.push_back(static_cast<double>(t.frames) *
                                  r.slowdown / r.run_s);
                    slowdown.push_back(r.slowdown);
                    frames += static_cast<double>(t.frames);
                    wall_s += r.run_s;
                    std::vector<double> &lat = round_latency_ms.emplace_back();
                    for (const StreamTrack &s : r.tracks)
                        for (size_t n = 0; n < s.sunk.size(); ++n)
                            lat.push_back(
                                msBetween(s.submit[n], s.delivered[n]) /
                                r.slowdown);
                    latency_ms.insert(latency_ms.end(), lat.begin(),
                                      lat.end());
                    tallies.push_back(t);
                });

    // Deadlines never bind, so every round is the same computation.
    const Tally &first = tallies.front();
    const u32 crc = foldCrcs(first.stream_crcs);
    out.check("crc32", hex32(crc));
    out.check("model_totals", modelTotals(first));
    for (const Tally &t : tallies)
        if (foldCrcs(t.stream_crcs) != crc ||
            modelTotals(t) != modelTotals(first))
            out.problem("rounds decoded different frames");

    if (!opt.trace) {
        EndToEnd e;
        e.setup_s = median(setup);
        e.frames_per_s = median(fps);
        e.goodput_fps = e.frames_per_s; // deadlines never bind
        e.latency_ms = std::move(round_latency_ms);
        e.slowdown = std::move(slowdown);
        e.wall_frames_per_s = frames / wall_s;
        e.dram_bytes_per_frame =
            static_cast<double>(first.bytes_written + first.bytes_read +
                                first.metadata_bytes) /
            static_cast<double>(first.frames);
        e.energy_uj_per_frame =
            first.energy_uj / static_cast<double>(first.frames);
        emitEndToEnd(out, e);
        out.info["latency_p99_ms"] = percentile(latency_ms, 99);
        out.info["rounds"] = static_cast<double>(tallies.size());
        return;
    }

    // Traced: rounds with the telemetry journal attached, the
    // single-threaded baseline of the same streams and frames, and one
    // overload probe round for the guard layer.
    SpanRecorder spans(true);
    LayerStats l;
    l.untraced_fps = median(fps);
    l.latency_p99_ms = percentile(latency_ms, 99);
    std::vector<double> traced_fps, service_ms, wait_ms;
    double encode_ms = 0.0, store_ms = 0.0, decode_ms = 0.0;
    double sensor_ms = 0.0, isp_ms = 0.0, txn = 0.0, regions = 0.0;
    double kept = 0.0, fills = 0.0, batch = 0.0;
    u64 journal = 0, served = 0, traced_rounds = 0;
    u64 enc_waits = 0, enc_acq = 0, dec_waits = 0, dec_acq = 0;
    serveRounds(
        w, in, start, opt.seconds / 2, true, out,
        [&](const Round &r, const Tally &t,
            const rpx::obs::TelemetrySink &sink) {
            spans.record("fleet.FleetServer.run", r.run_start, r.run_end,
                         static_cast<i64>(traced_rounds++));
            traced_fps.push_back(static_cast<double>(t.frames) *
                                 r.slowdown / r.run_s);
            slowdown.push_back(r.slowdown);
            for (const rpx::obs::FrameTelemetry &ft : sink.frames()) {
                const double svc = ft.sensor_us + ft.isp_us +
                                   ft.encode_us + ft.dram_write_us +
                                   ft.decode_us;
                service_ms.push_back(svc / 1e3);
                wait_ms.push_back((ft.total_us - svc) / 1e3);
                sensor_ms += ft.sensor_us / 1e3;
                isp_ms += ft.isp_us / 1e3;
                encode_ms += ft.encode_us / 1e3;
                store_ms += ft.dram_write_us / 1e3;
                decode_ms += ft.decode_us / 1e3;
                txn += static_cast<double>(ft.dram_write_transactions);
                regions += static_cast<double>(ft.regions.size());
                kept += static_cast<double>(ft.pixels_kept) /
                        static_cast<double>(ft.pixels_in);
                ++journal;
            }
            fills += t.history_fills;
            served += t.sunk;
            enc_waits += r.report.encode_engines.waits;
            enc_acq += r.report.encode_engines.acquisitions;
            dec_waits += r.report.decode_engines.waits;
            dec_acq += r.report.decode_engines.acquisitions;
            batch += r.report.mean_store_batch;
        });

    std::vector<u32> serial_crcs;
    const auto a = Clock::now();
    l.serial_fps = runSerial(w, in, spans, serial_crcs);
    spans.record("serial.round", a, Clock::now(), 0);
    if (serial_crcs != first.stream_crcs)
        out.problem("serial stage run decoded different frames");

    // Overload probe: 22 fps per stream, shedding at zero slack, the
    // degradation ladder at its defaults. Its guard figures vary from
    // run to run (which streams starve is chaotic), so they are
    // per-layer context only; the output checks still apply.
    const auto probe_start = Clock::now();
    u64 probe_frames = 0, probe_shed = 0, probe_late = 0, probe_served = 0;
    u64 probe_good = 0;
    double probe_level = 0.0, probe_run_s = 0.0;
    std::vector<double> lag_ms;
    serveRounds(
        kOverloadProbe, in, probe_start, 0.0, true, out,
        [&](const Round &r, const Tally &t,
            const rpx::obs::TelemetrySink &sink) {
            spans.record("guard.overload_probe", r.run_start, r.run_end, 0);
            probe_frames += t.frames;
            probe_shed += r.report.shed_frames;
            probe_late += t.late;
            probe_served += t.sunk;
            probe_good += t.fresh_on_time;
            probe_run_s += r.run_s;
            for (const rpx::obs::FrameTelemetry &ft : sink.frames())
                probe_level += ft.degradation_level;
            for (const StreamTrack &s : r.tracks)
                for (size_t n = 0; n < s.submit.size(); ++n)
                    lag_ms.push_back(msBetween(
                        dueTime(kOverloadProbe, r, n), s.submit[n]));
        });

    const double nj = static_cast<double>(journal);
    const double px = static_cast<double>(kWidth) * kHeight;
    l.traced_fps = median(traced_fps);
    l.host_slowdown = median(slowdown);
    l.sensor_capture_ms = sensor_ms / nj;
    l.isp_process_ms = isp_ms / nj;
    l.encode_ms = encode_ms / nj;
    l.encode_ns_per_px = l.encode_ms * 1e6 / px;
    l.regions_per_frame = regions / nj;
    l.decode_ms = decode_ms / nj;
    l.history_fill_frac = fills / (static_cast<double>(served) * px);
    l.kept_frac = kept / nj;
    l.dram_write_txn_per_frame = txn / nj;
    l.store_ms = store_ms / nj;
    l.service_ms_p50 = percentile(service_ms, 50);
    l.wait_ms_p50 = percentile(wait_ms, 50);
    l.encode_lease_wait_frac = static_cast<double>(enc_waits) / enc_acq;
    l.decode_lease_wait_frac = static_cast<double>(dec_waits) / dec_acq;
    l.store_batch_mean = batch / static_cast<double>(traced_rounds);
    l.submit_lag_ms_p50 = percentile(lag_ms, 50);
    l.shed_frac = static_cast<double>(probe_shed) / probe_frames;
    l.late_served_frac =
        static_cast<double>(probe_late) / static_cast<double>(probe_served);
    l.degradation_level_mean = probe_level / probe_frames;
    l.goodput_fps = static_cast<double>(probe_good) / probe_run_s;
    l.error_frac = static_cast<double>(out.failed) / out.attempted;
    emitLayers(out, l);
    spans.record("perfbench.run", start, Clock::now(), 0);
    if (!opt.trace_out.empty())
        spans.writeChromeTrace(opt.trace_out);
}

} // namespace perfbench
