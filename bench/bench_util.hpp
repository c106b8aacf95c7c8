/**
 * @file
 * Shared plumbing for the bench_* binaries' report output.
 *
 * Every bench takes `--out-dir DIR` (default build/bench_out, relative to
 * the working directory) and writes BENCH_<bench>.json there: the
 * BenchReport of headline metrics that the trend store commits and
 * trend_compare gates on.
 */

#ifndef RPX_BENCH_UTIL_HPP
#define RPX_BENCH_UTIL_HPP

#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/perf_registry.hpp"

namespace rpx::benchutil {

/**
 * Strip "--out-dir DIR" out of argv (google-benchmark rejects unknown
 * flags, so this must run before benchmark::Initialize). Returns the
 * directory, or `fallback` when the flag is absent.
 */
inline std::string
consumeOutDir(int &argc, char **argv,
              const std::string &fallback = "build/bench_out")
{
    std::string out = fallback;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
            out = argv[++i];
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    return out;
}

/**
 * First gauge whose name contains `contains` and ends with `suffix`.
 * Returns false (leaving `out` untouched) when absent — a filtered
 * benchmark run must not crash report assembly, just omit the metric.
 */
inline bool
findGauge(const std::vector<obs::MetricSample> &samples,
          const std::string &contains, const std::string &suffix,
          double &out)
{
    for (const obs::MetricSample &s : samples) {
        if (s.kind != obs::MetricSample::Kind::Gauge)
            continue;
        if (s.name.find(contains) == std::string::npos)
            continue;
        if (s.name.size() < suffix.size() ||
            s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
            continue;
        out = s.value;
        return true;
    }
    return false;
}

} // namespace rpx::benchutil

#endif // RPX_BENCH_UTIL_HPP
