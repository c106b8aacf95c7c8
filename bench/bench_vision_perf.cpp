/**
 * @file
 * Vision-kernel microbenchmarks for the V-SLAM loop (§5.3): the two
 * kernels that set its frame rate, each on the data the SLAM workload
 * feeds it.
 *  - BM_MatchDescriptors/N: 500 query descriptors against N train
 *    descriptors, with the default ratio and cross checks. N = 287 is the
 *    size of a tracking map, N = 500 the feature policy's previous frame.
 *  - BM_DetectOrb640x480: ORB detection (pyramid, FAST, blur, orientation,
 *    rotated BRIEF) on one rendered 640x480 SlamSequence frame.
 *  - BM_FastPyramid640x480: FAST with non-maximum suppression on the four
 *    pyramid levels of that frame, the detector's FAST stage alone.
 *  - BM_BoxBlur3_640x480: the descriptor blur of that frame's base level.
 *
 * Wall-clock only; nothing here writes a trend report.
 */

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "datasets/slam_dataset.hpp"
#include "vision/matcher.hpp"
#include "vision/fast.hpp"
#include "vision/orb.hpp"
#include "vision/pyramid.hpp"

namespace rpx {
namespace {

const SlamSequence &
sequence()
{
    static const SlamSequence seq{SlamSequenceConfig{}};
    return seq;
}

/** Descriptors of one rendered frame, at most `count` of them. */
std::vector<Descriptor>
frameDescriptors(int frame, size_t count)
{
    std::vector<Descriptor> d =
        descriptorsOf(detectOrb(sequence().renderFrame(frame)));
    d.resize(std::min(d.size(), count));
    return d;
}

void
BM_MatchDescriptors(benchmark::State &state)
{
    const std::vector<Descriptor> query = frameDescriptors(1, 500);
    const std::vector<Descriptor> train =
        frameDescriptors(0, static_cast<size_t>(state.range(0)));
    size_t matches = 0;
    for (auto _ : state) {
        const auto m = matchDescriptors(query, train);
        matches = m.size();
        benchmark::DoNotOptimize(m.data());
    }
    state.counters["queries"] = static_cast<double>(query.size());
    state.counters["train"] = static_cast<double>(train.size());
    state.counters["matches"] = static_cast<double>(matches);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(query.size() * train.size()));
}
BENCHMARK(BM_MatchDescriptors)->Arg(287)->Arg(500)
    ->Unit(benchmark::kMicrosecond);

void
BM_DetectOrb640x480(benchmark::State &state)
{
    const Image frame = sequence().renderFrame(0);
    size_t features = 0;
    for (auto _ : state) {
        const auto f = detectOrb(frame);
        features = f.size();
        benchmark::DoNotOptimize(f.data());
    }
    state.counters["features"] = static_cast<double>(features);
}
BENCHMARK(BM_DetectOrb640x480)->Unit(benchmark::kMillisecond);

void
BM_FastPyramid640x480(benchmark::State &state)
{
    const ImagePyramid pyramid(sequence().renderFrame(0));
    size_t corners = 0;
    for (auto _ : state) {
        corners = 0;
        for (size_t lvl = 0; lvl < pyramid.levels(); ++lvl) {
            const auto c = detectFast(pyramid.level(lvl).image);
            corners += c.size();
            benchmark::DoNotOptimize(c.data());
        }
    }
    state.counters["corners"] = static_cast<double>(corners);
}
BENCHMARK(BM_FastPyramid640x480)->Unit(benchmark::kMicrosecond);

void
BM_BoxBlur3_640x480(benchmark::State &state)
{
    const Image frame = sequence().renderFrame(0);
    for (auto _ : state) {
        const Image blurred = boxBlur3(frame);
        benchmark::DoNotOptimize(blurred.data().data());
    }
}
BENCHMARK(BM_BoxBlur3_640x480)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace rpx

BENCHMARK_MAIN();
