#include "obs/bench_report.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace rpx::obs {

namespace {

constexpr const char *kSchema = "rpx-bench-report-v1";
constexpr const char *kSoakSchema = "rpx-soak-report-v1";

} // namespace

std::string
writeBenchReportJson(const BenchReport &report)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kSchema << "\",\n  \"bench\": \""
       << json::escape(report.bench) << "\",\n  \"commit\": \""
       << json::escape(report.commit) << "\",\n  \"pr\": \""
       << json::escape(report.pr) << "\",\n  \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        os << (first ? "" : ",") << "\n    \"" << json::escape(name)
           << "\": {\"value\": " << json::number(m.value) << ", \"unit\": \""
           << json::escape(m.unit) << "\", \"direction\": \""
           << json::escape(m.direction) << "\", \"kind\": \""
           << json::escape(m.kind) << "\"}";
        first = false;
    }
    os << "\n  }\n}\n";
    return os.str();
}

void
writeBenchReportFile(const BenchReport &report, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throwRuntime("cannot open bench report for writing: ", path);
    os << writeBenchReportJson(report);
    if (!os.good())
        throwRuntime("failed writing bench report: ", path);
}

BenchReport
benchReportFromJson(const json::Value &v)
{
    const std::string schema = v.stringOr("schema", "");
    // Soak reports embed a complete bench report under "bench" so the
    // trend store can track soak metrics without learning a new schema.
    if (schema == kSoakSchema) {
        const json::Value *bench = v.find("bench");
        if (!bench || !bench->isObject())
            throwRuntime("soak report has no embedded \"bench\" object");
        return benchReportFromJson(*bench);
    }
    if (schema != kSchema)
        throwRuntime("bench report schema mismatch: got '", schema,
                     "', expected '", kSchema, "' (or '", kSoakSchema,
                     "' with an embedded bench object)");
    BenchReport report;
    report.bench = v.at("bench").str();
    report.commit = v.stringOr("commit", "unknown");
    report.pr = v.stringOr("pr", "");
    for (const auto &[name, mv] : v.at("metrics").object()) {
        BenchMetric m;
        m.value = mv.at("value").number();
        m.unit = mv.stringOr("unit", "");
        m.direction = mv.stringOr("direction", "higher");
        m.kind = mv.stringOr("kind", "wall");
        if (m.direction != "higher" && m.direction != "lower")
            throwRuntime("bench metric '", name, "' has bad direction '",
                         m.direction, "'");
        if (m.kind != "model" && m.kind != "wall")
            throwRuntime("bench metric '", name, "' has bad kind '",
                         m.kind, "'");
        report.metrics.emplace(name, std::move(m));
    }
    return report;
}

BenchReport
readBenchReportFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throwRuntime("cannot open bench report: ", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        return benchReportFromJson(json::parse(buf.str()));
    } catch (const std::exception &e) {
        throwRuntime("bench report ", path, ": ", e.what());
    }
}

std::string
benchReportPath(const std::string &out_dir, const std::string &bench)
{
    namespace fs = std::filesystem;
    const fs::path dir = out_dir.empty() ? fs::path(".") : fs::path(out_dir);
    fs::create_directories(dir);
    return (dir / ("BENCH_" + bench + ".json")).string();
}

std::string
benchCommitFromEnv()
{
    if (const char *c = std::getenv("RPX_BENCH_COMMIT"); c && *c)
        return c;
    if (const char *c = std::getenv("GITHUB_SHA"); c && *c)
        return c;
    return "unknown";
}

void
TrendResult::merge(const TrendResult &other)
{
    regressions.insert(regressions.end(), other.regressions.begin(),
                       other.regressions.end());
    warnings.insert(warnings.end(), other.warnings.begin(),
                    other.warnings.end());
    improvements.insert(improvements.end(), other.improvements.begin(),
                        other.improvements.end());
}

TrendResult
compareReports(const BenchReport &baseline, const BenchReport &candidate,
               const TrendThresholds &thresholds)
{
    TrendResult result;

    for (const auto &[name, base] : baseline.metrics) {
        TrendIssue issue;
        issue.bench = candidate.bench.empty() ? baseline.bench
                                              : candidate.bench;
        issue.metric = name;
        issue.baseline = base.value;
        issue.kind = base.kind;

        const auto it = candidate.metrics.find(name);
        if (it == candidate.metrics.end()) {
            issue.note = "metric missing from candidate run";
            result.warnings.push_back(std::move(issue));
            continue;
        }
        const BenchMetric &cand = it->second;
        issue.candidate = cand.value;

        if (base.value == 0.0) {
            if (cand.value != 0.0) {
                issue.note = "baseline is 0; cannot compute percent change";
                result.warnings.push_back(std::move(issue));
            }
            continue;
        }

        issue.delta_pct =
            (cand.value - base.value) / std::abs(base.value) * 100.0;
        // Positive `worsening` means the metric moved in its bad
        // direction by that many percent.
        const double worsening = base.direction == "higher"
                                     ? -issue.delta_pct
                                     : issue.delta_pct;
        const double threshold = base.kind == "model"
                                     ? thresholds.model_pct
                                     : thresholds.wall_pct;

        if (worsening > threshold) {
            std::ostringstream note;
            note << name << " worsened " << worsening << "% ("
                 << base.value << " -> " << cand.value << " " << base.unit
                 << ", " << base.kind << " metric, threshold " << threshold
                 << "%)";
            issue.note = note.str();
            const bool gate =
                base.kind == "model" || thresholds.gate_wall;
            (gate ? result.regressions : result.warnings)
                .push_back(std::move(issue));
        } else if (worsening < -threshold) {
            std::ostringstream note;
            note << name << " improved " << -worsening << "% ("
                 << base.value << " -> " << cand.value << " " << base.unit
                 << ")";
            issue.note = note.str();
            result.improvements.push_back(std::move(issue));
        }
    }

    // New metrics (in candidate, absent from baseline) warn so the
    // baseline gets refreshed rather than silently ignoring them.
    for (const auto &[name, cand] : candidate.metrics) {
        if (baseline.metrics.count(name))
            continue;
        TrendIssue issue;
        issue.bench = candidate.bench;
        issue.metric = name;
        issue.candidate = cand.value;
        issue.kind = cand.kind;
        issue.note = "metric missing from baseline (new metric?)";
        result.warnings.push_back(std::move(issue));
    }
    return result;
}

} // namespace rpx::obs
