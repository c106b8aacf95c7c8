/**
 * @file
 * One reconciliation of the frame-outcome metrics against a telemetry
 * journal, shared by the registry, fleet and CLI export tests.
 *
 * The journal holds one record per frame that left the pipeline with a
 * result. Summed, it must reproduce every pipeline.* outcome counter and
 * energy gauge, and — where a stream ran a degradation ladder — the
 * three degrade.* outcome counters: degrade.quarantined_frames and
 * degrade.held_frames count quarantined frames, and degrade.deadline_misses
 * counts late frames plus shed ones (the ladder sees a shed as a miss).
 * Without a ladder those three names are not registered at all.
 */

#ifndef RPX_TESTS_OBS_OUTCOME_METRICS_HPP
#define RPX_TESTS_OBS_OUTCOME_METRICS_HPP

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/perf_registry.hpp"
#include "obs/telemetry.hpp"

namespace rpx {

/** A metric's value by name; nullopt when the name is not registered. */
using MetricLookup =
    std::function<std::optional<double>(const std::string &)>;

/** Look metrics up in a snapshot of `registry` taken now. */
inline MetricLookup
registryLookup(const obs::PerfRegistry &registry)
{
    std::map<std::string, double> values;
    for (const obs::MetricSample &s : registry.snapshot())
        values[s.name] = s.value;
    return [values](const std::string &name) -> std::optional<double> {
        const auto it = values.find(name);
        if (it == values.end())
            return std::nullopt;
        return it->second;
    };
}

/**
 * Every pipeline.* outcome counter and the four energy gauges equal the
 * journal's sums; the degrade.* outcome counters follow the formulas in
 * the file comment when `ladder` is set and are absent otherwise. Energy
 * compares to a relative 1e-9: a fleet adds frames in a different order.
 */
inline void
expectOutcomeMetricsMatchJournal(const MetricLookup &metric,
                                 const std::vector<obs::FrameTelemetry> &journal,
                                 bool ladder)
{
    u64 quarantined = 0, misses = 0, shed = 0, transients = 0;
    u64 retries = 0, dropped = 0;
    Bytes written = 0, read = 0, meta = 0;
    double sense = 0.0, csi = 0.0, dram = 0.0;
    for (const obs::FrameTelemetry &f : journal) {
        quarantined += f.quarantined ? 1 : 0;
        misses += f.deadline_missed ? 1 : 0;
        shed += f.shed ? 1 : 0;
        transients += f.transient_faults;
        retries += f.dma_retries;
        dropped += f.dma_dropped_bursts;
        written += f.bytes_written;
        read += f.bytes_read;
        meta += f.metadata_bytes;
        sense += f.energy_sense_nj;
        csi += f.energy_csi_nj;
        dram += f.energy_dram_nj;
    }

    const auto count = [&](const std::string &name, u64 expected) {
        const std::optional<double> v = metric(name);
        ASSERT_TRUE(v.has_value()) << name << " is not registered";
        EXPECT_EQ(*v, static_cast<double>(expected)) << name;
    };
    count("pipeline.frames", journal.size());
    count("pipeline.bytes_written", written);
    count("pipeline.bytes_read", read);
    count("pipeline.metadata_bytes", meta);
    count("pipeline.quarantined_frames", quarantined);
    count("pipeline.deadline_misses", misses);
    count("pipeline.shed_frames", shed);
    count("pipeline.transient_faults", transients);
    count("pipeline.dma_retries", retries);
    count("pipeline.dma_dropped_bursts", dropped);

    const auto energy = [&](const std::string &name, double expected) {
        const std::optional<double> v = metric(name);
        ASSERT_TRUE(v.has_value()) << name << " is not registered";
        EXPECT_NEAR(*v, expected, 1e-9 * (1.0 + expected)) << name;
    };
    energy("pipeline.energy_sense_nj", sense);
    energy("pipeline.energy_csi_nj", csi);
    energy("pipeline.energy_dram_nj", dram);
    energy("pipeline.energy_total_nj", sense + csi + dram);

    const std::pair<const char *, u64> degrade[] = {
        {"degrade.quarantined_frames", quarantined},
        {"degrade.held_frames", quarantined},
        {"degrade.deadline_misses", misses + shed}};
    for (const auto &[name, expected] : degrade) {
        if (ladder)
            count(name, expected);
        else
            EXPECT_FALSE(metric(name).has_value()) << name;
    }
}

} // namespace rpx

#endif // RPX_TESTS_OBS_OUTCOME_METRICS_HPP
