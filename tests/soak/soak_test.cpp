/**
 * @file
 * Soak-harness tests: a short churn+fault soak must complete its whole
 * frame budget with zero conservation drift, the same seed must
 * reproduce the same model outcome, trace replay must drive the harness
 * from a recorded trace, and the emitted report must be consumable by
 * the bench/trend tooling. The CiConfig cases repeat the conservation,
 * chaos and replay checks at the full CI soak configuration.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "common/json.hpp"
#include "obs/bench_report.hpp"
#include "sim/trace_io.hpp"
#include "soak/soak.hpp"

namespace rpx {
namespace {

soak::SoakOptions
shortSoak(u32 streams, double duration_s)
{
    soak::SoakOptions o;
    o.streams = streams;
    o.duration_s = duration_s;
    o.fps = 30.0;
    o.seed = 1234;
    o.faults = true;
    o.churn = true;
    o.width = 96;
    o.height = 64;
    o.checkpoint_every = 64;
    return o;
}

/**
 * The CI soak configuration: `rpx_soak --streams 64 --duration 2 --fps 30
 * --seed 1234 --faults on --churn on --checkpoint-every 128`, plus
 * `--chaos on` when asked. Without chaos, its outcome is the committed
 * bench/trend/BENCH_soak.json baseline.
 */
soak::SoakOptions
ciSoak(bool chaos)
{
    soak::SoakOptions o;
    o.streams = 64;
    o.duration_s = 2.0;
    o.fps = 30.0;
    o.seed = 1234;
    o.faults = true;
    o.churn = true;
    o.chaos = chaos;
    o.checkpoint_every = 128;
    return o;
}

/**
 * A clean run: no violations or errors, zero final drift, and every
 * journalled frame is either a delivered budget frame or a shed one.
 */
void
expectConserved(const soak::SoakResult &res)
{
    EXPECT_TRUE(res.ok) << (res.violations.empty()
                                ? "not ok without violations"
                                : res.violations.front());
    EXPECT_EQ(res.frames, res.frames_budget + res.shed_frames);
    EXPECT_EQ(res.final_frames_drift, 0u);
    EXPECT_EQ(res.final_bytes_drift, 0);
    EXPECT_EQ(res.fleet.errors, 0u);
}

/**
 * The guard absorbed the chaos it exists for: the chaos plan's
 * deterministic Stage::Shed verdicts shed frames that the fleet
 * accounted, at least one quarantined stream recovered, and the
 * wall-clock chaos sites fired.
 */
void
expectChaosHandled(const soak::SoakResult &res)
{
    EXPECT_GT(res.shed_frames, 0u);
    EXPECT_EQ(res.shed_frames, res.fleet.shed_frames);
    EXPECT_GE(res.health_recoveries, 1u);
    EXPECT_GT(res.chaos_hits, 0u);
}

/** Two runs of one seed agree on every model quantity. */
void
expectSameModelOutcome(const soak::SoakResult &a, const soak::SoakResult &b)
{
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.frames_budget, b.frames_budget);
    EXPECT_EQ(a.generations, b.generations);
    EXPECT_EQ(a.fault_drops, b.fault_drops);
    EXPECT_EQ(a.fault_byte_errors, b.fault_byte_errors);
    EXPECT_EQ(a.fault_stalls, b.fault_stalls);
    EXPECT_EQ(a.degrade_escalations, b.degrade_escalations);
    EXPECT_EQ(a.degrade_recoveries, b.degrade_recoveries);
    EXPECT_EQ(a.shed_frames, b.shed_frames);
    EXPECT_EQ(a.health_recoveries, b.health_recoveries);
    EXPECT_EQ(a.final_frames_drift, b.final_frames_drift);
    EXPECT_EQ(a.final_bytes_drift, b.final_bytes_drift);
    EXPECT_EQ(a.fleet.quarantined, b.fleet.quarantined);
    EXPECT_EQ(a.fleet.deadline_misses, b.fleet.deadline_misses);
    EXPECT_EQ(a.fleet.transient_faults, b.fleet.transient_faults);
    EXPECT_EQ(a.fleet.health_transitions, b.fleet.health_transitions);
    EXPECT_EQ(a.fleet.bytes_written, b.fleet.bytes_written);
    EXPECT_EQ(a.fleet.bytes_read, b.fleet.bytes_read);
    EXPECT_EQ(a.fleet.metadata_bytes, b.fleet.metadata_bytes);
    EXPECT_EQ(a.fleet.kept_fraction_mean, b.fleet.kept_fraction_mean);
    // Every model metric of the embedded bench reports matches too.
    const auto modelMetrics = [](const obs::BenchReport &r) {
        std::map<std::string, double> out;
        for (const auto &[name, metric] : r.metrics)
            if (metric.kind == "model")
                out.emplace(name, metric.value);
        return out;
    };
    EXPECT_EQ(modelMetrics(a.bench), modelMetrics(b.bench));
}

TEST(Soak, ChurnWithFaultsCompletesBudgetWithZeroDrift)
{
    const soak::SoakOptions o = shortSoak(64, 0.2); // 6 frames per slot
    const soak::SoakResult res = soak::runSoak(o);

    expectConserved(res);
    EXPECT_EQ(res.frames, res.frames_budget);
    EXPECT_EQ(res.frames_budget, 64u * 6u);
    // 6-frame budgets force every slot through several generations.
    EXPECT_GT(res.generations, 64u);
    EXPECT_GE(res.checkpoints, 1u);
    EXPECT_GT(res.fault_drops, 0u);
    EXPECT_GT(res.rss_peak_kb, 0u);
    // Every generation start shows up as one fleet stream report.
    EXPECT_EQ(res.fleet.streams.size(), res.generations);
}

TEST(Soak, SameSeedReproducesModelOutcome)
{
    const soak::SoakOptions o = shortSoak(8, 0.5);
    const soak::SoakResult a = soak::runSoak(o);
    const soak::SoakResult b = soak::runSoak(o);

    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    expectSameModelOutcome(a, b);
}

TEST(Soak, DifferentSeedChangesTheFaultPattern)
{
    soak::SoakOptions o = shortSoak(8, 0.5);
    const soak::SoakResult a = soak::runSoak(o);
    o.seed = 4321;
    const soak::SoakResult b = soak::runSoak(o);

    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    // Same budget, different fault/churn realisation.
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_NE(a.fleet.bytes_written, b.fleet.bytes_written);
}

TEST(Soak, TraceReplayDrivesGeometryAndLabels)
{
    const std::string path = testing::TempDir() + "soak_trace.csv";
    TraceFile tf;
    tf.width = 80;
    tf.height = 60;
    tf.trace = {
        {{0, 0, 80, 60, 1, 1, 0}},
        {{0, 0, 80, 60, 2, 1, 0}, {8, 8, 32, 24, 1, 1, 0}},
        {{0, 0, 80, 60, 4, 2, 0}},
    };
    writeTraceFile(path, tf);

    soak::SoakOptions o;
    o.streams = 2;
    o.duration_s = 0.4; // 12 frames per slot: the 3-frame trace loops
    o.fps = 30.0;
    o.seed = 99;
    o.faults = false;
    o.churn = false;
    o.trace_path = path;
    o.checkpoint_every = 8;
    const soak::SoakResult res = soak::runSoak(o);

    ASSERT_TRUE(res.ok) << (res.violations.empty()
                                ? "not ok without violations"
                                : res.violations.front());
    EXPECT_EQ(res.frames, 24u);
    EXPECT_EQ(res.generations, 2u);
    EXPECT_EQ(res.fleet.streams_completed, 2u);
    EXPECT_GT(res.fleet.bytes_written, 0u);
    // Without churn both streams complete naturally.
    for (const auto &s : res.fleet.streams)
        EXPECT_TRUE(s.completed);
}

TEST(Soak, ReportRoundTripsThroughBenchTooling)
{
    soak::SoakOptions o = shortSoak(4, 0.2);
    const soak::SoakResult res = soak::runSoak(o);
    ASSERT_TRUE(res.ok);

    const std::string js = soak::toJson(res);
    const json::Value v = json::parse(js);
    EXPECT_EQ(v.stringOr("schema", ""), "rpx-soak-report-v1");
    EXPECT_TRUE(v.at("ok").type() == json::Value::Type::Bool);
    EXPECT_EQ(static_cast<u64>(v.numberOr("frames", -1)), res.frames);

    // The embedded bench report unwraps through the standard reader —
    // this is the path trend_compare takes on a soak report.
    const obs::BenchReport bench = obs::benchReportFromJson(v);
    EXPECT_EQ(bench.bench, "soak");
    const auto it = bench.metrics.find("soak.frames");
    ASSERT_NE(it, bench.metrics.end());
    EXPECT_EQ(static_cast<u64>(it->second.value), res.frames);
    EXPECT_EQ(it->second.kind, "model");
    const auto drift = bench.metrics.find("soak.frames_drift");
    ASSERT_NE(drift, bench.metrics.end());
    EXPECT_EQ(drift->second.value, 0.0);
}

/**
 * Chaos soak: wall-clock perturbation (capture jitter, worker stalls,
 * slow leases, queue bursts) plus the chaos fault plan's deterministic
 * shed verdicts. The run must stay conservation-clean, account every
 * shed frame, and show at least one quarantine → recovery transition —
 * the guard layer absorbing the chaos it exists for.
 */
TEST(Soak, ChaosSoakShedsRecoversAndConserves)
{
    soak::SoakOptions o = shortSoak(8, 2.0);
    o.seed = 77;
    o.chaos = true;
    const soak::SoakResult res = soak::runSoak(o);

    // Shed frames are accounted but not delivered, so the churn ledger
    // schedules make-up frames until the delivered count hits the
    // budget: journal total == budget + shed, exactly.
    expectConserved(res);
    expectChaosHandled(res);
}

/** Chaos perturbs time only: the model outcome is seed-reproducible. */
TEST(Soak, ChaosSameSeedReproducesModelOutcome)
{
    soak::SoakOptions o = shortSoak(8, 0.5);
    o.seed = 77;
    o.chaos = true;
    const soak::SoakResult a = soak::runSoak(o);
    const soak::SoakResult b = soak::runSoak(o);

    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    expectSameModelOutcome(a, b);
}

TEST(Soak, CiConfigChurnWithFaultsConserves)
{
    const soak::SoakResult res = soak::runSoak(ciSoak(false));
    expectConserved(res);
    EXPECT_EQ(res.frames, res.frames_budget);
    EXPECT_EQ(res.frames_budget, 64u * 60u);
    EXPECT_GT(res.checkpoints, 0u);
}

TEST(Soak, CiConfigChaosShedsRecoversAndConserves)
{
    const soak::SoakResult res = soak::runSoak(ciSoak(true));
    expectConserved(res);
    expectChaosHandled(res);
    EXPECT_EQ(res.frames_budget, 64u * 60u);
    EXPECT_GT(res.checkpoints, 0u);
}

TEST(Soak, CiConfigSameSeedReproducesModelOutcome)
{
    const soak::SoakResult a = soak::runSoak(ciSoak(false));
    const soak::SoakResult b = soak::runSoak(ciSoak(false));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    expectSameModelOutcome(a, b);
}

TEST(Soak, CiConfigChaosSameSeedReproducesModelOutcome)
{
    const soak::SoakResult a = soak::runSoak(ciSoak(true));
    const soak::SoakResult b = soak::runSoak(ciSoak(true));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    expectSameModelOutcome(a, b);
}

obs::TelemetryTotals
journalAt(u64 frames, u64 bytes)
{
    obs::TelemetryTotals j;
    j.frames = frames;
    j.bytes_written = bytes;
    return j;
}

fleet::FrameTotals
ledgerAt(u64 frames, u64 bytes)
{
    fleet::FrameTotals l;
    l.frames = frames;
    l.bytes_written = bytes;
    return l;
}

/**
 * The mid-run journal/ledger bound on a ledger read bracketed by two
 * journal reads, with 4 live streams (frame cap 4, byte cap 400). A
 * frame is journaled before it reaches the ledger, so at the ledger read
 * the journal leads by the frames in flight.
 */
TEST(Soak, CheckpointBoundHoldsAcrossFramesJournaledBetweenReads)
{
    constexpr u64 kCap = 4;
    constexpr u64 kByteCap = 400;

    // The interleaving a ledger-then-journal checkpoint misreads: two
    // frames in flight at the ledger read (journal 102, ledger 100),
    // then ten more frames journaled before the journal is read. One
    // journal read after the ledger sees a lead of 12 and reports a
    // violation that never happened; the read before bounds the lead.
    const obs::TelemetryTotals before = journalAt(101, 10'100);
    const fleet::FrameTotals ledger = ledgerAt(100, 10'000);
    const obs::TelemetryTotals after = journalAt(112, 11'200);
    EXPECT_EQ(soak::ledgerViolations("old", after, ledger, after, kCap,
                                     kByteCap)
                  .size(),
              2u);
    EXPECT_TRUE(soak::ledgerViolations("cp", before, ledger, after, kCap,
                                       kByteCap)
                    .empty());

    // Frames journaled and counted between the first journal read and
    // the ledger read leave `before` behind the ledger: no lead.
    EXPECT_TRUE(soak::ledgerViolations("cp", journalAt(95, 9'500), ledger,
                                       after, kCap, kByteCap)
                    .empty());
    // A lead of exactly the cap is in bounds; one more is a violation,
    // on that field only.
    EXPECT_TRUE(soak::ledgerViolations("cp", journalAt(104, 10'400), ledger,
                                       after, kCap, kByteCap)
                    .empty());
    const std::vector<std::string> lead = soak::ledgerViolations(
        "cp@1", journalAt(105, 10'400), ledger, after, kCap, kByteCap);
    ASSERT_EQ(lead.size(), 1u);
    EXPECT_NE(lead[0].find("cp@1: journal/ledger frames out of bounds"),
              std::string::npos)
        << lead[0];
    EXPECT_EQ(soak::ledgerViolations("cp", journalAt(101, 10'401), ledger,
                                     after, kCap, kByteCap)
                  .size(),
              1u);
    // The ledger never leads the journal read after it.
    EXPECT_EQ(soak::ledgerViolations("cp", before, ledger,
                                     journalAt(99, 11'200), kCap, kByteCap)
                  .size(),
              1u);
    // One read on both sides is the exact check of a quiesced fleet.
    EXPECT_TRUE(soak::ledgerViolations("final", journalAt(100, 10'000),
                                       ledger, journalAt(100, 10'000), 0, 0)
                    .empty());
    EXPECT_EQ(soak::ledgerViolations("final", journalAt(101, 10'000),
                                     ledger, journalAt(101, 10'000), 0, 0)
                  .size(),
              1u);
}

TEST(Soak, RejectsBadOptions)
{
    soak::SoakOptions o;
    o.streams = 0;
    EXPECT_THROW(soak::runSoak(o), std::exception);
    o = soak::SoakOptions{};
    o.duration_s = -1.0;
    EXPECT_THROW(soak::runSoak(o), std::exception);
    o = soak::SoakOptions{};
    o.trace_path = testing::TempDir() + "definitely_missing_trace.csv";
    EXPECT_THROW(soak::runSoak(o), std::exception);
}

} // namespace
} // namespace rpx
