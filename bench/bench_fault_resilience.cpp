/**
 * @file
 * Fault-resilience sweep: the full pipeline (CRC-sealed metadata,
 * corruption-safe decode, degradation ladder) driven through a range of
 * injected fault intensities via FaultPlan::uniform.
 *
 * Protocol: for each fault rate, run the same synthetic moving-region
 * sequence twice — once fault-free (the quality reference) and once with
 * the injector attached — and report, per rate:
 *
 *   frames        frames processed
 *   quarantined   decodes rejected by CRC/validation (held-last-good)
 *   held          frames served from the hold-last-good image
 *   dl_miss       deadline misses (injected; stand-in for contention)
 *   escal/recov   degradation-ladder transitions
 *   transients    contained faults (DMA retries, CSI damage events)
 *   psnr_db       mean decoded PSNR vs the fault-free reference (capped
 *                 at 99 dB for identical frames)
 *   rec_frames    mean frames from a disturbance (quarantine/miss) back
 *                 to the first clean frame
 *
 * Flags: --quick (shorter sequence, CI smoke), --out-dir DIR (artifact
 * directory, default build/bench_out). The out dir receives the
 * BenchReport of headline metrics (BENCH_fault_resilience.json) that
 * trend_compare gates on. The sweep is fully seeded, so the headline
 * metrics are "model"-kind: byte-stable for a given sequence length
 * (--quick vs full differ — compare like with like; the committed trend
 * baseline uses --quick).
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "frame/metrics.hpp"
#include "obs/bench_report.hpp"
#include "sim/pipeline.hpp"

using namespace rpx;

namespace {

constexpr i32 kW = 160;
constexpr i32 kH = 120;

/** Synthetic scene with a moving bright square over value noise. */
Image
sceneAt(int t)
{
    Image img(kW, kH);
    Rng rng(915 + static_cast<u64>(t) * 7919);
    fillValueNoise(img, rng, 24.0, 40, 150);
    const i32 bx = (t * 3) % (kW - 32);
    const i32 by = (t * 2) % (kH - 24);
    for (i32 y = by; y < by + 24; ++y)
        for (i32 x = bx; x < bx + 32; ++x)
            img.set(x, y, 230);
    return img;
}

std::vector<RegionLabel>
labelsAt(int t)
{
    const i32 bx = (t * 3) % (kW - 32);
    const i32 by = (t * 2) % (kH - 24);
    return {
        {std::max<i32>(0, bx - 4), std::max<i32>(0, by - 4), 40, 32, 1, 1,
         0},
        {0, 0, kW, kH, 4, 2, 0}, // coarse periphery
    };
}

PipelineConfig
pipelineConfig()
{
    PipelineConfig pc;
    pc.width = kW;
    pc.height = kH;
    pc.fault.crc_metadata = true;
    pc.fault.graceful = true;
    return pc;
}

struct SweepRow {
    double rate = 0.0;
    int frames = 0;
    u64 quarantined = 0;
    u64 held = 0;
    u64 deadline_misses = 0;
    u64 escalations = 0;
    u64 recoveries = 0;
    u64 transients = 0;
    double mean_psnr_db = 0.0;
    double mean_recovery_frames = 0.0;
};

SweepRow
runSweep(double rate, int frames, const std::vector<Image> &reference)
{
    fault::FaultPlan plan = fault::FaultPlan::uniform(rate, 0xFA51);
    // Give the ladder something to react to at higher rates: deadline
    // misses scale with the fault intensity (contention stand-in).
    plan.at(fault::Stage::Deadline).drop_rate =
        std::min(1.0, rate * 40.0);

    PipelineConfig pc = pipelineConfig();
    if (rate > 0.0)
        pc.fault.plan = &plan;
    VisionPipeline pipeline(pc);

    SweepRow row;
    row.rate = rate;
    row.frames = frames;
    double psnr_sum = 0.0;
    int psnr_n = 0;
    // Recovery latency: frames from each disturbance onset back to clean.
    u64 recovery_total = 0, recovery_events = 0;
    int disturbance_age = -1; // -1 = currently clean

    for (int t = 0; t < frames; ++t) {
        pipeline.runtime().setRegionLabels(labelsAt(t));
        const PipelineFrameResult r = pipeline.processFrame(sceneAt(t));

        row.held += r.held_last_good; // not in the frame ledger

        const double p = psnr(reference[static_cast<size_t>(t)],
                              r.decoded);
        psnr_sum += std::min(p, 99.0);
        ++psnr_n;

        const bool disturbed = r.quarantined || r.deadline_missed;
        if (disturbed) {
            if (disturbance_age < 0)
                disturbance_age = 0;
            ++disturbance_age;
        } else if (disturbance_age >= 0) {
            recovery_total += static_cast<u64>(disturbance_age);
            ++recovery_events;
            disturbance_age = -1;
        }
    }
    const fleet::FrameTotals &totals = pipeline.totals();
    row.quarantined = totals.quarantined;
    row.deadline_misses = totals.deadline_misses;
    row.transients = totals.transient_faults;
    if (const auto *deg = pipeline.degradation()) {
        row.escalations = deg->stats().escalations;
        row.recoveries = deg->stats().recoveries;
    }
    row.mean_psnr_db = psnr_n ? psnr_sum / psnr_n : 0.0;
    row.mean_recovery_frames =
        recovery_events
            ? static_cast<double>(recovery_total) /
                  static_cast<double>(recovery_events)
            : 0.0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_dir = "build/bench_out";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out-dir") == 0 &&
                   i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::cerr << "usage: bench_fault_resilience [--quick] "
                         "[--out-dir DIR]\n";
            return 1;
        }
    }

    const int frames = quick ? 40 : 150;
    const double rates[] = {1e-4, 5e-4, 2e-3, 1e-2};

    // Fault-free reference run (same scenes, same labels, same pipeline
    // settings) — the quality yardstick for every injected run.
    std::vector<Image> reference;
    {
        VisionPipeline pipeline(pipelineConfig());
        for (int t = 0; t < frames; ++t) {
            pipeline.runtime().setRegionLabels(labelsAt(t));
            reference.push_back(pipeline.processFrame(sceneAt(t)).decoded);
        }
    }

    std::cout << "Fault resilience sweep (" << kW << "x" << kH << ", "
              << frames << " frames, CRC + graceful decode + ladder)\n\n";
    std::cout << "  rate      frames quarant  held  dl_miss escal recov "
                 "transients  psnr_db  rec_frames\n";

    char line[160];
    std::vector<SweepRow> rows;
    for (double rate : rates) {
        const SweepRow row = runSweep(rate, frames, reference);
        rows.push_back(row);
        std::snprintf(line, sizeof(line),
                      "  %-9.0e %6d %7llu %5llu %8llu %5llu %5llu %10llu "
                      "%8.2f %11.2f",
                      row.rate, row.frames,
                      static_cast<unsigned long long>(row.quarantined),
                      static_cast<unsigned long long>(row.held),
                      static_cast<unsigned long long>(row.deadline_misses),
                      static_cast<unsigned long long>(row.escalations),
                      static_cast<unsigned long long>(row.recoveries),
                      static_cast<unsigned long long>(row.transients),
                      row.mean_psnr_db, row.mean_recovery_frames);
        std::cout << line << "\n";
    }

    std::cout << "\nInterpretation: quarantined frames are caught by the "
                 "metadata CRC and served\nhold-last-good; deadline misses "
                 "escalate the ladder (region budget shrinks,\nskips "
                 "coarsen) until clean frames recover it. PSNR is against "
                 "the fault-free\nrun of the same sequence.\n";

    // Headline BenchReport for the trend store. Everything here is
    // seeded and wall-clock-free, hence "model" kind (tight gating).
    obs::BenchReport report;
    report.bench = "fault_resilience";
    report.commit = obs::benchCommitFromEnv();
    for (const SweepRow &row : rows) {
        char tag[32];
        std::snprintf(tag, sizeof(tag), "rate_%.0e", row.rate);
        report.setMetric(std::string("psnr_db_") + tag, row.mean_psnr_db, "dB", "higher", "model");
        report.setMetric(std::string("recovery_frames_") + tag, row.mean_recovery_frames, "frames", "lower",
                          "model");
    }
    const std::string report_path =
        obs::benchReportPath(out_dir, "fault_resilience");
    obs::writeBenchReportFile(report, report_path);
    std::cout << "\nWrote " << report_path << "\n";
    return 0;
}
