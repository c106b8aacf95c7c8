/**
 * @file
 * Command-line driver for the evaluation harness: run any workload under
 * any capture scheme, export the region trace, or replay a saved trace
 * through the throughput simulator at an arbitrary resolution — with
 * optional observability output (Chrome-trace stage spans, metric
 * snapshots, log level).
 *
 * Usage:
 *   rpx_cli run   --task slam|face|pose --scheme FCH|FCL|RP|MULTIROI
 *                 [--cycle N] [--frames N]
 *                 [--region-trace-out FILE]
 *                 [--trace-out FILE] [--metrics-out FILE]
 *                 [--journal-out FILE]
 *                 [--streams N] [--fleet-report FILE]
 *                 [--log-level debug|info|warn|silent]
 *   rpx_cli replay --trace FILE --scheme FCH|FCL|RP|H264|MULTIROI
 *                 [--width N --height N] [--fps F]
 *                 [--trace-out FILE] [--metrics-out FILE]
 *                 [--log-level debug|info|warn|silent]
 *
 * --trace-out writes a chrome://tracing / Perfetto-compatible JSON of
 * per-frame pipeline stage spans; --metrics-out writes a counter/gauge/
 * histogram snapshot (JSON, or CSV when the file ends in ".csv");
 * --journal-out (run only) streams one JSON line per processed frame with
 * stage latencies, traffic, energy, and per-region attribution (the
 * "rpx-frame-telemetry-v1" schema, see src/obs/telemetry.hpp).
 *
 * --streams N (run only) switches to the multi-stream fleet path: N
 * synthetic camera streams share the engine pool under EDF scheduling
 * (src/fleet/fleet.hpp), each stream running --frames frames. The
 * journal then carries one line per frame with a per-stream "s<id>"
 * label, and --fleet-report writes the aggregate rpx-fleet-report-v1
 * JSON (per-stream frame counts, deadline misses, queue/engine stats).
 */

#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>

#include <fstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "frame/draw.hpp"
#include "obs/metrics_export.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "sim/experiments.hpp"
#include "sim/trace_io.hpp"
#include "sim/workload.hpp"

using namespace rpx;

namespace {

[[noreturn]] void
usage()
{
    std::cerr
        << "usage:\n"
        << "  rpx_cli run    --task slam|face|pose --scheme "
           "FCH|FCL|RP|MULTIROI [--cycle N]\n"
        << "                 [--frames N]\n"
        << "                 [--region-trace-out FILE]\n"
        << "                 [--trace-out FILE] [--metrics-out FILE]\n"
        << "                 [--journal-out FILE]\n"
        << "                 [--streams N] [--fleet-report FILE]\n"
        << "                 [--admission hard|capacity]\n"
        << "                 [--watchdog-ms N] [--shed-slack-ms X]\n"
        << "                 [--log-level debug|info|warn|silent]\n"
        << "  rpx_cli replay --trace FILE --scheme "
           "FCH|FCL|RP|H264|MULTIROI [--width N]\n"
        << "                 [--height N] [--fps F] [--trace-out FILE]\n"
        << "                 [--metrics-out FILE]\n"
        << "                 [--log-level debug|info|warn|silent]\n";
    std::exit(2);
}

/** The flags each command reads; anything else is a usage error. */
const std::set<std::string> kRunFlags = {
    "task", "scheme", "cycle", "frames", "region-trace-out", "trace-out",
    "metrics-out", "journal-out", "streams", "fleet-report", "admission",
    "watchdog-ms", "shed-slack-ms", "log-level"};
const std::set<std::string> kReplayFlags = {
    "trace", "scheme", "width", "height", "fps", "trace-out", "metrics-out",
    "log-level"};

/**
 * Read `--flag value` pairs. A flag the command does not read, or a
 * trailing flag with no value, prints usage and exits 2 rather than
 * being silently ignored.
 */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first,
           const std::set<std::string> &known)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string name = flag.rfind("--", 0) == 0 ? flag.substr(2)
                                                          : std::string();
        if (!known.count(name)) {
            std::cerr << "unknown flag: " << flag << "\n";
            usage();
        }
        if (i + 1 >= argc) {
            std::cerr << "flag " << flag << " needs a value\n";
            usage();
        }
        flags[name] = argv[i + 1];
    }
    return flags;
}

CaptureScheme
schemeFromName(const std::string &name)
{
    if (name == "FCH")
        return CaptureScheme::FCH;
    if (name == "FCL")
        return CaptureScheme::FCL;
    if (name == "RP")
        return CaptureScheme::RP;
    if (name == "H264")
        return CaptureScheme::H264;
    if (name == "MULTIROI")
        return CaptureScheme::MultiRoi;
    std::cerr << "unknown scheme: " << name << "\n";
    usage();
}

/** Apply --log-level and prepare the obs context the flags ask for. */
void
applyObsFlags(const std::map<std::string, std::string> &flags,
              obs::ObsContext &ctx)
{
    if (flags.count("log-level")) {
        setLogLevel(detail::parseLogLevel(flags.at("log-level").c_str(),
                                          logLevel()));
    }
    if (flags.count("trace-out"))
        ctx.enableTrace();
}

/** Write --trace-out / --metrics-out files after a run. */
void
exportObs(const std::map<std::string, std::string> &flags,
          const obs::ObsContext &ctx)
{
    if (flags.count("trace-out")) {
        ctx.trace()->writeJsonFile(flags.at("trace-out"));
        std::cout << "  spans:      " << flags.at("trace-out") << " ("
                  << ctx.trace()->size() << " events)\n";
    }
    if (flags.count("metrics-out")) {
        obs::writeMetricsFile(ctx.registry(), flags.at("metrics-out"));
        std::cout << "  metrics:    " << flags.at("metrics-out") << " ("
                  << ctx.registry().size() << " metrics)\n";
    }
}

/**
 * The fleet path behind `run --streams N`: N synthetic 96x64 camera
 * streams (value-noise scene with a stream-keyed moving box, foveal
 * label + coarse periphery) share the engine pool under EDF deadlines.
 */
int
fleetCommand(const std::map<std::string, std::string> &flags,
             obs::ObsContext &obs_ctx, obs::TelemetrySink *journal)
{
    constexpr i32 kW = 96;
    constexpr i32 kH = 64;

    fleet::FleetConfig fc;
    fc.stream.width = kW;
    fc.stream.height = kH;
    fc.stream.history = 2;
    fc.stream.obs = &obs_ctx;
    fc.stream.telemetry = journal;
    fc.streams = static_cast<u32>(std::stoul(flags.at("streams")));
    if (fc.streams < 1) {
        std::cerr << "error: --streams must be >= 1\n";
        return 1;
    }
    fc.frames_per_stream = static_cast<u32>(
        flags.count("frames") ? std::stoul(flags.at("frames")) : 60);
    fc.encode_engines = 8;
    fc.decode_engines = 8;

    // Overload-protection knobs (rpx::guard); all default off.
    if (flags.count("admission")) {
        const std::string &mode = flags.at("admission");
        if (mode == "capacity")
            fc.guard.admission.policy =
                guard::AdmissionPolicy::CapacityModel;
        else if (mode != "hard") {
            std::cerr << "error: --admission must be hard|capacity\n";
            return 1;
        }
    }
    if (flags.count("watchdog-ms")) {
        // One knob sets the whole escalation ladder: warn at N, force-
        // quarantine at 2N, evict at 4N, scanning every N/4 ms.
        const u32 n = static_cast<u32>(
            std::stoul(flags.at("watchdog-ms")));
        if (n < 1) {
            std::cerr << "error: --watchdog-ms must be >= 1\n";
            return 1;
        }
        fc.guard.watchdog.enabled = true;
        fc.guard.watchdog.warn_ms = n;
        fc.guard.watchdog.quarantine_ms = 2 * n;
        fc.guard.watchdog.evict_ms = 4 * n;
        fc.guard.watchdog.interval_ms = std::max<u32>(1, n / 4);
    }
    if (flags.count("shed-slack-ms")) {
        fc.guard.shed.enabled = true;
        fc.guard.shed.slack_ms = std::stod(flags.at("shed-slack-ms"));
    }
    fc.scene_source = [](u32 stream, u64 frame) {
        Image img(kW, kH);
        Rng rng(0x9E3779B9u + 7919u * stream + 131u * frame);
        fillValueNoise(img, rng, 16.0, 40, 150);
        const i32 bx =
            static_cast<i32>((stream * 5 + frame * 3) % (kW - 24));
        const i32 by =
            static_cast<i32>((stream * 3 + frame * 2) % (kH - 16));
        for (i32 y = by; y < by + 16; ++y)
            for (i32 x = bx; x < bx + 24; ++x)
                img.set(x, y, 230);
        return img;
    };
    fc.label_source = [](u32 stream) {
        const i32 bx = static_cast<i32>((stream * 5) % (kW - 32));
        const i32 by = static_cast<i32>((stream * 3) % (kH - 24));
        return std::vector<RegionLabel>{
            {bx, by, 32, 24, 1, 1, 0},
            {0, 0, kW, kH, 4, 2, 0}, // coarse periphery
        };
    };

    fleet::FleetServer server(fc);
    const fleet::FleetReport r = server.run();

    std::cout << "fleet of " << r.streams_started << " streams (" << kW
              << "x" << kH << ", " << fc.frames_per_stream
              << " frames each, EDF)\n";
    std::cout << "  frames:     " << r.frames << " ("
              << fmtDouble(r.frames_per_second, 0) << " frames/s)\n";
    std::cout << "  latency:    p50 " << fmtDouble(r.latency_p50_us, 0)
              << " us, p99 " << fmtDouble(r.latency_p99_us, 0)
              << " us, p999 " << fmtDouble(r.latency_p999_us, 0)
              << " us\n";
    std::cout << "  traffic:    "
              << fmtDouble(static_cast<double>(r.bytes_written) / 1e6, 3)
              << " MB written, kept "
              << fmtDouble(100.0 * r.kept_fraction_mean, 1) << "%\n";
    std::cout << "  schedule:   " << r.deadline_misses
              << " deadline misses, mean DMA batch "
              << fmtDouble(r.mean_store_batch, 2) << "\n";
    if (fc.guard.shed.enabled || fc.guard.watchdog.enabled ||
        fc.guard.admission.policy !=
            guard::AdmissionPolicy::HardCapOnly) {
        std::cout << "  guard:      " << r.shed_frames << " shed, "
                  << r.admission_rejects << " admission rejects, "
                  << r.watchdog_warns << " watchdog warns, "
                  << r.watchdog_evictions << " evictions, "
                  << r.health_recoveries << " health recoveries\n";
    }

    if (flags.count("fleet-report")) {
        std::ofstream out(flags.at("fleet-report"));
        out << fleet::toJson(r);
        std::cout << "  report:     " << flags.at("fleet-report") << " ("
                  << r.streams.size() << " streams)\n";
    }
    if (journal) {
        journal->flush();
        std::cout << "  journal:    " << flags.at("journal-out") << " ("
                  << journal->totals().frames << " frames)\n";
    }
    exportObs(flags, obs_ctx);
    return 0;
}

int
runCommand(const std::map<std::string, std::string> &flags)
{
    obs::ObsContext obs_ctx;
    applyObsFlags(flags, obs_ctx);

    // Per-frame telemetry journal: the sink streams one JSON line per
    // frame as the run progresses, so even aborted runs leave a journal.
    std::unique_ptr<obs::TelemetrySink> journal;
    if (flags.count("journal-out")) {
        obs::TelemetrySink::Config tc;
        tc.journal_path = flags.at("journal-out");
        tc.keep_frames = 0; // the file is the product; retain nothing
        journal = std::make_unique<obs::TelemetrySink>(tc);
    }

    if (flags.count("streams"))
        return fleetCommand(flags, obs_ctx, journal.get());

    const std::string task =
        flags.count("task") ? flags.at("task") : "slam";
    WorkloadConfig wc;
    wc.scheme = schemeFromName(
        flags.count("scheme") ? flags.at("scheme") : "RP");
    wc.cycle_length =
        flags.count("cycle") ? std::stoi(flags.at("cycle")) : 10;
    wc.obs = &obs_ctx;
    wc.telemetry = journal.get();
    const int frames =
        flags.count("frames") ? std::stoi(flags.at("frames")) : 60;

    WorkloadRunBase base;
    std::string accuracy;
    if (task == "slam") {
        SlamSequenceConfig seq;
        seq.frames = frames;
        const SlamRunResult r = runSlamWorkload(seq, wc);
        base = r;
        accuracy = "ATE " + fmtDouble(r.metrics.ate_mean * 1000, 1) +
                   " mm, RPE-t " +
                   fmtDouble(r.metrics.rpe_trans_mean * 1000, 1) + " mm";
    } else if (task == "face") {
        FaceSequenceConfig seq;
        seq.frames = frames;
        const DetectionRunResult r = runFaceWorkload(seq, wc);
        base = r;
        accuracy = "mAP " + fmtDouble(r.map_percent, 1) + "%, F1 " +
                   fmtDouble(r.f1_percent, 1) + "%";
    } else if (task == "pose") {
        PoseSequenceConfig seq;
        seq.frames = frames;
        const DetectionRunResult r = runPoseWorkload(seq, wc);
        base = r;
        accuracy = "mAP " + fmtDouble(r.map_percent, 1) + "%, F1 " +
                   fmtDouble(r.f1_percent, 1) + "%";
    } else {
        std::cerr << "unknown task: " << task << "\n";
        usage();
    }

    double kept = 0.0;
    for (double k : base.kept_per_frame)
        kept += k;
    kept /= static_cast<double>(base.kept_per_frame.size());

    std::cout << base.scheme_name << " on " << task << " (" << base.width
              << "x" << base.height << ", "
              << base.kept_per_frame.size() << " frames)\n";
    std::cout << "  accuracy:   " << accuracy << "\n";
    std::cout << "  kept:       " << fmtDouble(100.0 * kept, 1) << "%\n";
    std::cout << "  DDR:        "
              << fmtDouble(base.pipeline_traffic.throughputMBps(base.fps),
                           1)
              << " MB/s, footprint "
              << fmtDouble(base.pipeline_traffic.footprintMB(), 2)
              << " MB\n";

    if (flags.count("region-trace-out")) {
        TraceFile file;
        file.width = base.width;
        file.height = base.height;
        file.trace = base.trace;
        writeTraceFile(flags.at("region-trace-out"), file);
        std::cout << "  trace:      " << flags.at("region-trace-out")
                  << " (" << file.trace.size() << " frames)\n";
    }
    if (journal) {
        journal->flush();
        std::cout << "  journal:    " << flags.at("journal-out") << " ("
                  << journal->totals().frames << " frames)\n";
    }
    exportObs(flags, obs_ctx);
    return 0;
}

int
replayCommand(const std::map<std::string, std::string> &flags)
{
    if (!flags.count("trace"))
        usage();
    obs::ObsContext obs_ctx;
    applyObsFlags(flags, obs_ctx);
    const TraceFile file = readTraceFile(flags.at("trace"));

    ThroughputConfig tc;
    tc.width = flags.count("width") ? std::stoi(flags.at("width"))
                                    : file.width;
    tc.height = flags.count("height") ? std::stoi(flags.at("height"))
                                      : file.height;
    tc.fps = flags.count("fps") ? std::stod(flags.at("fps")) : 30.0;

    const RegionTrace trace =
        (tc.width == file.width && tc.height == file.height)
            ? file.trace
            : scaleTrace(file.trace, file.width, file.height, tc.width,
                         tc.height);

    const CaptureScheme scheme = schemeFromName(
        flags.count("scheme") ? flags.at("scheme") : "RP");
    ThroughputSimulator sim(tc);
    sim.attachObs(&obs_ctx);
    const ThroughputResult r = sim.evaluate(scheme, trace);

    std::cout << schemeName(scheme) << " replay of "
              << flags.at("trace") << " at " << tc.width << "x"
              << tc.height << " @ " << tc.fps << " fps\n";
    std::cout << "  throughput: " << fmtDouble(r.throughput_mbps, 1)
              << " MB/s (write " << fmtDouble(r.write_mbps, 1)
              << ", read " << fmtDouble(r.read_mbps, 1) << ")\n";
    std::cout << "  footprint:  " << fmtDouble(r.footprint_mb, 2)
              << " MB mean, " << fmtDouble(r.footprint_peak_mb, 2)
              << " MB peak\n";
    std::cout << "  kept:       "
              << fmtDouble(100.0 * r.kept_fraction, 1) << "%\n";
    exportObs(flags, obs_ctx);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    try {
        if (command == "run")
            return runCommand(parseFlags(argc, argv, 2, kRunFlags));
        if (command == "replay")
            return replayCommand(parseFlags(argc, argv, 2, kReplayFlags));
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    usage();
}
