/**
 * @file
 * Soak/replay harness CLI: drives a FleetServer for a simulated duration
 * with deterministic faults and join/leave churn, checks at checkpoints
 * that the telemetry journal and the fleet's frame ledger agree, and
 * emits an rpx-soak-report-v1 JSON that trend_compare accepts directly
 * (the bench report is embedded).
 *
 * Usage:
 *   rpx_soak [--streams N] [--duration SECONDS] [--fps N] [--seed N]
 *            [--faults on|off] [--churn on|off] [--chaos on|off]
 *            [--trace FILE]
 *            [--width N] [--height N] [--checkpoint-every N]
 *            [--journal FILE]
 *            [--report FILE | --out-dir DIR]
 *
 * --duration is *simulated* seconds per stream slot (frames = duration *
 * fps), replayed as fast as the host allows. --out-dir writes the report
 * as DIR/BENCH_soak.json, the name trend_compare scans for. The report's
 * directory is created and the report opened before the soak runs, so an
 * unwritable report fails at once instead of after the soak. The same
 * --seed reproduces the same model quantities (frames, faults, churn
 * schedule) on every run and platform.
 *
 * Exit status: 0 = soak passed, 1 = invariant violation, stream errors
 * or an unwritable report, 2 = usage/setup error.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/bench_report.hpp"
#include "soak/soak.hpp"

namespace {

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: rpx_soak [--streams N] [--duration SECONDS] [--fps N]\n"
        << "                [--seed N] [--faults on|off] [--churn on|off]\n"
        << "                [--chaos on|off] [--trace FILE]\n"
        << "                [--width N] [--height N]\n"
        << "                [--checkpoint-every N]\n"
        << "                [--journal FILE] [--report FILE]\n"
        << "                [--out-dir DIR]\n";
    std::exit(2);
}

bool
parseOnOff(const std::string &v)
{
    if (v == "on" || v == "1" || v == "true")
        return true;
    if (v == "off" || v == "0" || v == "false")
        return false;
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    rpx::soak::SoakOptions opts;
    std::string report_path;
    std::string out_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--streams")
            opts.streams = static_cast<rpx::u32>(std::stoul(value()));
        else if (arg == "--duration")
            opts.duration_s = std::stod(value());
        else if (arg == "--fps")
            opts.fps = std::stod(value());
        else if (arg == "--seed")
            opts.seed = std::stoull(value());
        else if (arg == "--faults")
            opts.faults = parseOnOff(value());
        else if (arg == "--churn")
            opts.churn = parseOnOff(value());
        else if (arg == "--chaos")
            opts.chaos = parseOnOff(value());
        else if (arg == "--trace")
            opts.trace_path = value();
        else if (arg == "--width")
            opts.width = static_cast<rpx::i32>(std::stol(value()));
        else if (arg == "--height")
            opts.height = static_cast<rpx::i32>(std::stol(value()));
        else if (arg == "--checkpoint-every")
            opts.checkpoint_every = std::stoull(value());
        else if (arg == "--journal")
            opts.journal_path = value();
        else if (arg == "--report")
            report_path = value();
        else if (arg == "--out-dir")
            out_dir = value();
        else
            usage();
    }

    std::ofstream report;
    if (!report_path.empty() || !out_dir.empty()) {
        try {
            if (report_path.empty())
                report_path = rpx::obs::benchReportPath(out_dir, "soak");
            const std::filesystem::path parent =
                std::filesystem::path(report_path).parent_path();
            if (!parent.empty())
                std::filesystem::create_directories(parent);
            report.open(report_path);
        } catch (const std::filesystem::filesystem_error &) {
            // Reported below, as an unopened report.
        }
        if (!report.is_open()) {
            std::cerr << "error: cannot write report: "
                      << (report_path.empty() ? out_dir : report_path)
                      << "\n";
            return 1;
        }
    }

    try {
        const rpx::soak::SoakResult res = rpx::soak::runSoak(opts);

        std::cout << "rpx_soak: " << res.frames << "/" << res.frames_budget
                  << " frames, " << res.generations << " generations, "
                  << res.checkpoints
                  << " checkpoints (journal vs ledger frame drift: max "
                  << res.max_frames_drift << ", final "
                  << res.final_frames_drift << ")\n"
                  << "  faults: " << res.fault_drops << " drops, "
                  << res.fault_byte_errors << " corrupted bytes; "
                  << "quarantined " << res.fleet.quarantined
                  << ", deadline misses " << res.fleet.deadline_misses
                  << ", transients " << res.fleet.transient_faults << "\n"
                  << "  degradation: " << res.degrade_escalations
                  << " escalations, " << res.degrade_recoveries
                  << " recoveries\n"
                  << "  guard: " << res.shed_frames << " shed, "
                  << res.health_recoveries << " health recoveries, "
                  << res.watchdog_warns << " watchdog warns, "
                  << res.chaos_hits << " chaos hits\n"
                  << "  rss: " << res.rss_start_kb << " kB -> peak "
                  << res.rss_peak_kb << " kB; wall "
                  << res.fleet.wall_seconds << " s ("
                  << res.fleet.frames_per_second << " fps)\n";
        for (const std::string &v : res.violations)
            std::cout << "  VIOLATION: " << v << "\n";

        if (report.is_open()) {
            report << rpx::soak::toJson(res);
            report.close();
            if (!report) {
                std::cerr << "error: cannot write report: " << report_path
                          << "\n";
                return 1;
            }
            std::cout << "  report: " << report_path << "\n";
        }

        std::cout << (res.ok ? "OK" : "FAIL") << "\n";
        return res.ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
