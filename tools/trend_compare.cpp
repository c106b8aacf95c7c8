/**
 * @file
 * Bench trend comparator: diffs a directory of fresh BENCH_*.json reports
 * against the committed baseline store and gates CI on regressions.
 *
 * Usage:
 *   trend_compare --baseline bench/trend --candidate build/bench_out
 *                 [--threshold-pct 5] [--wall-threshold-pct 25]
 *                 [--gate-wall] [--update]
 *
 * Exit status: 0 = no gating regression, 1 = at least one model metric
 * (or, with --gate-wall, wall metric) worsened beyond its threshold, or
 * a candidate report is malformed or empty, 2 = usage/IO error. "model"
 * metrics come from the deterministic cycle/energy/traffic models and
 * gate tightly; "wall" metrics are wall-clock and only warn by default
 * (CI runners are noisy).
 *
 * --update copies the candidate reports over the baseline store (refresh
 * after an intentional change); it still prints the comparison first.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"

namespace fs = std::filesystem;
using rpx::obs::BenchReport;
using rpx::obs::TrendIssue;
using rpx::obs::TrendResult;
using rpx::obs::TrendThresholds;

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage: trend_compare --baseline DIR --candidate DIR\n"
              << "                     [--threshold-pct N] "
                 "[--wall-threshold-pct N]\n"
              << "                     [--gate-wall] [--update]\n";
    std::exit(2);
}

void
printIssues(const char *label, const std::vector<TrendIssue> &issues)
{
    for (const TrendIssue &issue : issues)
        std::cout << "  " << label << " [" << issue.bench << "] "
                  << issue.note << "\n";
}

/**
 * A whole-file (rather than per-metric) issue. Kept out of line: GCC 12's
 * -Wrestrict misfires on the string assignments when they inline into
 * main's loop (GCC PR105651), and CI builds with -Werror.
 */
[[gnu::noinline]] TrendIssue
fileIssue(std::string bench, std::string note)
{
    TrendIssue issue;
    issue.bench = std::move(bench);
    issue.metric.assign(1, '*');
    issue.note = std::move(note);
    return issue;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_dir;
    std::string candidate_dir;
    TrendThresholds thresholds;
    bool update = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--baseline")
            baseline_dir = value();
        else if (arg == "--candidate")
            candidate_dir = value();
        else if (arg == "--threshold-pct")
            thresholds.model_pct = std::stod(value());
        else if (arg == "--wall-threshold-pct")
            thresholds.wall_pct = std::stod(value());
        else if (arg == "--gate-wall")
            thresholds.gate_wall = true;
        else if (arg == "--update")
            update = true;
        else
            usage();
    }
    if (baseline_dir.empty() || candidate_dir.empty())
        usage();

    try {
        if (!fs::is_directory(candidate_dir)) {
            std::cerr << "error: candidate dir not found: " << candidate_dir
                      << "\n";
            return 2;
        }

        // Collect candidate reports (the set a CI run just produced).
        std::vector<fs::path> candidates;
        for (const auto &entry : fs::directory_iterator(candidate_dir)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_regular_file() &&
                name.rfind("BENCH_", 0) == 0 &&
                entry.path().extension() == ".json")
                candidates.push_back(entry.path());
        }
        std::sort(candidates.begin(), candidates.end());
        if (candidates.empty()) {
            std::cerr << "error: no BENCH_*.json reports in "
                      << candidate_dir << "\n";
            return 2;
        }

        TrendResult total;
        int compared = 0;
        for (const fs::path &cand_path : candidates) {
            // A malformed or empty candidate is a broken artifact of this
            // run and gates, but only after every other bench has been
            // compared, so one bad file does not mask the rest.
            BenchReport cand;
            try {
                cand = rpx::obs::readBenchReportFile(cand_path.string());
                if (cand.metrics.empty())
                    throw std::runtime_error("report has no metrics");
            } catch (const std::exception &e) {
                total.regressions.push_back(fileIssue(
                    cand_path.filename().string(),
                    std::string("unreadable candidate report: ") +
                        e.what()));
                continue;
            }
            const fs::path base_path =
                fs::path(baseline_dir) / cand_path.filename();
            if (!fs::exists(base_path)) {
                total.warnings.push_back(
                    fileIssue(cand.bench, "no baseline report (" +
                                              base_path.string() +
                                              "); skipping"));
                continue;
            }
            BenchReport base;
            try {
                base = rpx::obs::readBenchReportFile(base_path.string());
            } catch (const std::exception &e) {
                total.warnings.push_back(fileIssue(
                    cand.bench,
                    std::string("unreadable baseline report: ") +
                        e.what()));
                continue;
            }
            total.merge(rpx::obs::compareReports(base, cand, thresholds));
            ++compared;
        }

        // Baseline reports with no candidate counterpart warn too: a
        // bench silently dropped from CI would otherwise pass forever.
        if (fs::is_directory(baseline_dir)) {
            std::vector<fs::path> orphans;
            for (const auto &entry : fs::directory_iterator(baseline_dir)) {
                const std::string name = entry.path().filename().string();
                if (!entry.is_regular_file() ||
                    name.rfind("BENCH_", 0) != 0 ||
                    entry.path().extension() != ".json")
                    continue;
                if (!fs::exists(fs::path(candidate_dir) / name))
                    orphans.push_back(entry.path());
            }
            std::sort(orphans.begin(), orphans.end());
            for (const fs::path &orphan : orphans)
                total.warnings.push_back(
                    fileIssue(orphan.filename().string(),
                              "baseline report has no candidate "
                              "counterpart (bench removed from CI?)"));
        }

        std::cout << "trend_compare: " << compared << " report(s) vs "
                  << baseline_dir << " (model " << thresholds.model_pct
                  << "%, wall " << thresholds.wall_pct << "%"
                  << (thresholds.gate_wall ? ", gating wall" : "")
                  << ")\n";
        printIssues("REGRESSION", total.regressions);
        printIssues("warn", total.warnings);
        printIssues("improved", total.improvements);
        if (total.regressions.empty() && total.warnings.empty() &&
            total.improvements.empty())
            std::cout << "  all metrics within thresholds\n";

        if (update) {
            fs::create_directories(baseline_dir);
            for (const fs::path &cand_path : candidates)
                fs::copy_file(cand_path,
                              fs::path(baseline_dir) /
                                  cand_path.filename(),
                              fs::copy_options::overwrite_existing);
            std::cout << "  baseline updated: " << candidates.size()
                      << " report(s) copied to " << baseline_dir << "\n";
        }

        if (!total.ok()) {
            std::cout << "FAIL: " << total.regressions.size()
                      << " gating regression(s)\n";
            return 1;
        }
        std::cout << "OK\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
