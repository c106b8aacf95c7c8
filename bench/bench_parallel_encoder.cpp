/**
 * @file
 * Row-parallel encoder microbenchmark: wall-clock speedup of the
 * ParallelEncoder over the serial RhythmicEncoder at 1080p, across thread
 * counts and region loads.
 *
 * Each run reports
 *  - speedup_vs_serial: serial ns/frame divided by this run's ns/frame
 *    (the acceptance bar is >= 2x at 4 threads);
 *  - bit_identical: 1 iff the parallel output matched the serial output
 *    byte-for-byte before timing started (a speedup that changes bytes
 *    would be meaningless);
 *  - Mpixel/s throughput.
 *
 * `--out-dir DIR` (default build/bench_out; stripped before
 * google-benchmark sees argv) selects where BENCH_parallel_encoder.json
 * lands: the headline BenchReport for trend_compare, where bit_identical
 * gates as a model metric and the speedups are wall-kind and only warn.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/parallel_encoder.hpp"
#include "frame/draw.hpp"
#include "obs/bench_report.hpp"
#include "obs/perf_registry.hpp"

namespace rpx {
namespace {

constexpr i32 kW = 1920;
constexpr i32 kH = 1080;

const Image &
noiseFrame1080p()
{
    static const Image frame = [] {
        Image img(kW, kH);
        Rng rng(99);
        fillValueNoise(img, rng, 24.0, 10, 240);
        return img;
    }();
    return frame;
}

/**
 * Scattered always-active regions (skip 1 keeps every frame's cost equal,
 * so serial and parallel runs time the same work per iteration).
 */
std::vector<RegionLabel>
scatterRegions(int count, u64 seed)
{
    Rng rng(seed);
    std::vector<RegionLabel> regions;
    for (int i = 0; i < count; ++i) {
        regions.push_back({static_cast<i32>(rng.uniformInt(0, kW - 64)),
                           static_cast<i32>(rng.uniformInt(0, kH - 64)),
                           64, 64, static_cast<i32>(rng.uniformInt(1, 2)),
                           1, 0});
    }
    sortRegionsByY(regions);
    return regions;
}

/** Mean serial encode time (ns/frame) for the given label list. */
double
serialNsPerFrame(const std::vector<RegionLabel> &regions)
{
    RhythmicEncoder enc(kW, kH);
    enc.setRegionLabels(regions);
    FrameIndex t = 0;
    enc.encodeFrame(noiseFrame1080p(), t++); // warm-up
    const int reps = 5;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        benchmark::DoNotOptimize(enc.encodeFrame(noiseFrame1080p(), t++));
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / reps;
}

/** 1 iff parallel output matches serial output byte-for-byte. */
bool
bitIdentical(ParallelEncoder &par, const std::vector<RegionLabel> &regions)
{
    RhythmicEncoder serial(kW, kH);
    serial.setRegionLabels(regions);
    const EncodedFrame s = serial.encodeFrame(noiseFrame1080p(), 0);
    const EncodedFrame p = par.encodeFrame(noiseFrame1080p(), 0);
    return s.pixels == p.pixels && s.mask == p.mask &&
           s.offsets == p.offsets;
}

void
runParallelEncode(benchmark::State &state,
                  const std::vector<RegionLabel> &regions,
                  double serial_ns)
{
    ParallelEncoder::Config cfg;
    cfg.threads = static_cast<int>(state.range(0));
    ParallelEncoder enc(kW, kH, cfg);
    enc.setRegionLabels(regions);
    const bool identical = bitIdentical(enc, regions);
    enc.resetStats();

    FrameIndex t = 1;
    double total_s = 0.0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(enc.encodeFrame(noiseFrame1080p(), t++));
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        state.SetIterationTime(dt.count());
        total_s += dt.count();
    }
    const double ns_per_frame =
        total_s * 1e9 / static_cast<double>(state.iterations());
    state.counters["speedup_vs_serial"] = serial_ns / ns_per_frame;
    state.counters["bit_identical"] = identical ? 1 : 0;
    state.counters["Mpixel/s"] =
        static_cast<double>(kW) * kH / ns_per_frame * 1e3;
}

/** Dense 1080p frame (full-frame region): worst-case payload volume. */
void
BM_ParallelEncoderDense1080p(benchmark::State &state)
{
    static const std::vector<RegionLabel> regions = {
        fullFrameRegion(kW, kH)};
    static const double serial_ns = serialNsPerFrame(regions);
    runParallelEncode(state, regions, serial_ns);
}
BENCHMARK(BM_ParallelEncoderDense1080p)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/** Region-heavy 1080p frame: 400 overlapping 64x64 labels. */
void
BM_ParallelEncoderRegions1080p(benchmark::State &state)
{
    static const std::vector<RegionLabel> regions = scatterRegions(400, 5);
    static const double serial_ns = serialNsPerFrame(regions);
    runParallelEncode(state, regions, serial_ns);
}
BENCHMARK(BM_ParallelEncoderRegions1080p)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Console reporter that mirrors every run into a PerfRegistry so the
 * results land in a machine-readable snapshot next to the console table
 * (BENCH_parallel_encoder.json, consumed by regression tooling).
 */
class RegistryReporter : public benchmark::ConsoleReporter
{
  public:
    explicit RegistryReporter(obs::PerfRegistry &registry)
        : registry_(registry)
    {
    }

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string base = "bench." + run.benchmark_name();
            const double iters = static_cast<double>(run.iterations);
            registry_.gauge(base + ".real_time_ns")
                .set(run.real_accumulated_time / iters * 1e9);
            registry_.gauge(base + ".cpu_time_ns")
                .set(run.cpu_accumulated_time / iters * 1e9);
            registry_.gauge(base + ".iterations").set(iters);
            for (const auto &[name, counter] : run.counters)
                registry_.gauge(base + "." + name).set(counter.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    obs::PerfRegistry &registry_;
};

} // namespace
} // namespace rpx

int
main(int argc, char **argv)
{
    const std::string out_dir = rpx::benchutil::consumeOutDir(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    rpx::obs::PerfRegistry registry;
    rpx::RegistryReporter reporter(registry);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Headline report. bit_identical is a hard correctness bit (model
    // kind, a flip to 0 must gate); speedups are wall-clock and warn-only
    // — CI runners have too few cores to promise a stable 4-thread ratio.
    rpx::obs::BenchReport report;
    report.bench = "parallel_encoder";
    report.commit = rpx::obs::benchCommitFromEnv();
    const auto samples = registry.snapshot();
    double v = 0.0;
    if (rpx::benchutil::findGauge(samples,
                                  "BM_ParallelEncoderRegions1080p/4",
                                  ".bit_identical", v))
        report.setMetric("regions_bit_identical_4t", v, "bool", "higher", "model");
    if (rpx::benchutil::findGauge(samples,
                                  "BM_ParallelEncoderDense1080p/4",
                                  ".bit_identical", v))
        report.setMetric("dense_bit_identical_4t", v, "bool", "higher", "model");
    if (rpx::benchutil::findGauge(samples,
                                  "BM_ParallelEncoderRegions1080p/4",
                                  ".speedup_vs_serial", v))
        report.setMetric("regions_speedup_4t", v, "x", "higher", "wall");
    if (rpx::benchutil::findGauge(samples,
                                  "BM_ParallelEncoderDense1080p/4",
                                  ".speedup_vs_serial", v))
        report.setMetric("dense_speedup_4t", v, "x", "higher", "wall");

    const std::string report_path =
        rpx::obs::benchReportPath(out_dir, "parallel_encoder");
    rpx::obs::writeBenchReportFile(report, report_path);
    std::cout << "\nWrote " << report_path << "\n";
    return 0;
}
