/**
 * @file
 * End-to-end checks of the shipped rpx_cli and rpx_soak binaries. Each
 * case runs one as a child process in its own output directory, then
 * parses what it wrote with rpx::json and obs::readJournalFile: the
 * telemetry journal must reconcile with the metrics snapshot and the
 * fleet report, a malformed command line must be rejected rather than
 * ignored, and a soak report must land where asked or fail up front.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/telemetry.hpp"
#include "../obs/outcome_metrics.hpp"

namespace rpx {
namespace {

namespace fs = std::filesystem;

/** An empty directory named after the running test. */
fs::path
freshOutDir()
{
    const fs::path dir =
        fs::path(RPX_SMOKE_OUT_DIR) /
        testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Run `<binary> <args>` with `dir` as the working directory, capturing
 * stdout and stderr in dir/cli.log. Returns the exit status.
 */
int
runTool(const char *binary, const fs::path &dir, const std::string &args)
{
    const std::string cmd = "cd '" + dir.string() + "' && '" + binary +
                            "' " + args + " > cli.log 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
runCli(const fs::path &dir, const std::string &args)
{
    return runTool(RPX_CLI_PATH, dir, args);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

json::Value
readJson(const fs::path &path)
{
    return json::parse(readFile(path));
}

/** Value of one registry metric in a --metrics-out JSON snapshot. */
double
metric(const json::Value &snapshot, const std::string &name)
{
    return snapshot.at("metrics").at(name).at("value").number();
}

/** Look metrics up in a --metrics-out JSON snapshot. */
MetricLookup
snapshotLookup(const json::Value &snapshot)
{
    return [&snapshot](const std::string &name) -> std::optional<double> {
        const json::Value *m = snapshot.at("metrics").find(name);
        if (!m)
            return std::nullopt;
        return m->at("value").number();
    };
}

/** Journal byte sums equal the registry's pipeline.* byte counters. */
void
expectBytesReconcile(const obs::TelemetryTotals &journal,
                     const json::Value &metrics)
{
    EXPECT_EQ(static_cast<double>(journal.bytes_written),
              metric(metrics, "pipeline.bytes_written"));
    EXPECT_EQ(static_cast<double>(journal.bytes_read),
              metric(metrics, "pipeline.bytes_read"));
    EXPECT_EQ(static_cast<double>(journal.metadata_bytes),
              metric(metrics, "pipeline.metadata_bytes"));
}

TEST(Smoke, CliSingleStreamExportsReconcile)
{
    const fs::path dir = freshOutDir();
    ASSERT_EQ(runCli(dir, "run --task slam --scheme RP --frames 8"
                          " --trace-out trace.json"
                          " --metrics-out metrics.json"
                          " --journal-out frames.jsonl"),
              0)
        << readFile(dir / "cli.log");

    EXPECT_FALSE(
        readJson(dir / "trace.json").at("traceEvents").array().empty());
    const json::Value metrics = readJson(dir / "metrics.json");
    EXPECT_FALSE(metrics.at("metrics").object().empty());

    // readJournalFile rejects any line with another schema.
    const std::vector<obs::FrameTelemetry> journal =
        obs::readJournalFile((dir / "frames.jsonl").string());
    ASSERT_EQ(journal.size(), 8u);
    obs::TelemetryTotals totals;
    for (const obs::FrameTelemetry &f : journal) {
        u64 kept = 0;
        for (const obs::RegionTelemetry &r : f.regions)
            kept += r.pixels_kept;
        EXPECT_EQ(kept, f.pixels_kept) << "frame " << f.index;
        totals.add(f);
    }
    expectBytesReconcile(totals, metrics);
    const double energy = metric(metrics, "pipeline.energy_total_nj");
    EXPECT_NEAR(totals.energy_total_nj, energy, 1e-6 * energy);
    expectOutcomeMetricsMatchJournal(snapshotLookup(metrics), journal,
                                     /*ladder=*/false);
}

TEST(Smoke, CliFleetJournalReconcilesPerStream)
{
    const fs::path dir = freshOutDir();
    ASSERT_EQ(runCli(dir, "run --streams 64 --frames 6"
                          " --journal-out fleet.jsonl"
                          " --metrics-out metrics.json"
                          " --fleet-report report.json"),
              0)
        << readFile(dir / "cli.log");

    const std::vector<obs::FrameTelemetry> journal =
        obs::readJournalFile((dir / "fleet.jsonl").string());
    ASSERT_EQ(journal.size(), 64u * 6u);
    obs::TelemetryTotals totals;
    std::map<std::string, u64> frames_per_stream;
    for (const obs::FrameTelemetry &f : journal) {
        totals.add(f);
        ++frames_per_stream[f.stream];
    }
    EXPECT_EQ(frames_per_stream.size(), 64u);
    for (const auto &[stream, frames] : frames_per_stream)
        EXPECT_EQ(frames, 6u) << stream;

    const json::Value metrics = readJson(dir / "metrics.json");
    EXPECT_EQ(metric(metrics, "pipeline.frames"),
              static_cast<double>(journal.size()));
    expectBytesReconcile(totals, metrics);

    const json::Value report = readJson(dir / "report.json");
    EXPECT_EQ(report.at("schema").str(), "rpx-fleet-report-v1");
    EXPECT_EQ(report.at("frames").number(),
              static_cast<double>(journal.size()));
    EXPECT_EQ(report.at("streams_completed").number(), 64.0);
    EXPECT_EQ(report.at("bytes_written").number(),
              metric(metrics, "pipeline.bytes_written"));
    // Fleet streams run under deadlines, so each builds a ladder.
    expectOutcomeMetricsMatchJournal(snapshotLookup(metrics), journal,
                                     /*ladder=*/true);
}

TEST(Smoke, CliThreadedDecode)
{
    const fs::path dir = freshOutDir();
    EXPECT_EQ(runCli(dir, "run --task slam --scheme RP --frames 8"
                          " --decoder-threads 4"),
              0)
        << readFile(dir / "cli.log");
}

TEST(Smoke, CliRejectsUnknownFlag)
{
    const fs::path dir = freshOutDir();
    // A misspelt flag, and the removed encoder thread count: a script
    // that still passes it fails loudly instead of running serial.
    for (const std::string flag : {"--jornal-out x.jsonl",
                                   "--encoder-threads 4"}) {
        EXPECT_EQ(runCli(dir, "run --task slam --frames 1 " + flag), 2)
            << flag;
        const std::string name = flag.substr(0, flag.find(' '));
        EXPECT_NE(readFile(dir / "cli.log").find("unknown flag: " + name),
                  std::string::npos)
            << flag;
    }
}

TEST(Smoke, CliRejectsDanglingFlag)
{
    const fs::path dir = freshOutDir();
    EXPECT_EQ(runCli(dir, "run --task slam --frames 1 --journal-out"), 2);
    EXPECT_NE(readFile(dir / "cli.log")
                  .find("flag --journal-out needs a value"),
              std::string::npos);
}

/** A short soak: 4 streams for 0.2 simulated seconds. */
const std::string kShortSoak = "--streams 4 --duration 0.2 --fps 30 ";

TEST(Smoke, SoakReportCreatesMissingDirectory)
{
    const fs::path dir = freshOutDir();
    EXPECT_EQ(runTool(RPX_SOAK_PATH, dir,
                      kShortSoak + "--out-dir D --report D/r.json"),
              0)
        << readFile(dir / "cli.log");
    const json::Value report = readJson(dir / "D" / "r.json");
    EXPECT_TRUE(report.at("ok").boolean());
}

TEST(Smoke, SoakUnwritableReportFailsBeforeRunning)
{
    const fs::path dir = freshOutDir();
    std::ofstream(dir / "file") << "not a directory";
    EXPECT_EQ(runTool(RPX_SOAK_PATH, dir, kShortSoak + "--report file/r.json"),
              1);
    const std::string log = readFile(dir / "cli.log");
    EXPECT_NE(log.find("error: cannot write report: file/r.json"),
              std::string::npos)
        << log;
    EXPECT_EQ(log.find("rpx_soak:"), std::string::npos)
        << "the soak must not run: " << log;
}

} // namespace
} // namespace rpx
