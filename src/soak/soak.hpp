/**
 * @file
 * Long-run soak/replay harness for the fleet server (rpx::soak).
 *
 * runSoak() drives a FleetServer for a simulated duration per stream
 * *slot*, with deterministic fault injection, join/leave churn, and
 * periodic invariant checkpoints:
 *
 *  - conservation: the telemetry journal (TelemetrySink::totals()) and
 *    the fleet's frame ledger (FleetServer::totals()) agree on frames,
 *    bytes, and every fault and shed count. Mid-run the journal may lead
 *    by the frames in flight (at most `streams`); once the fleet has
 *    quiesced they must match exactly;
 *  - memory: RSS (VmRSS) is sampled at every checkpoint and its peak
 *    reported; every queue's high-water mark lands in the embedded
 *    fleet report so growth is visible in trend comparisons;
 *  - health: stream errors are zero and every slot finishes its budget.
 *
 * A violated invariant aborts the run via FleetServer::drain() — frames
 * in flight still complete and are accounted — and the violation text
 * lands in the report (ok = false, tool exit 1).
 *
 * Determinism: all *model* quantities (frame/byte counts, fault and
 * degradation outcomes, generation schedule) are pure functions of
 * SoakOptions. Churn is keyed by slot, not stream id: slot s runs
 * duration*fps frames total, split across one or more stream
 * *generations* whose lengths derive from (seed, slot, generation), and
 * a replacement stream continues its slot's content where the departed
 * generation stopped. Wall-clock fields (latency, RSS, checkpoint
 * timing) are the only run-to-run variance.
 *
 * Replay: with `trace_path` set, region labels come from a recorded
 * rpx-trace v1 file (sim/trace_io), cycled when the budget outruns the
 * trace (loop mode), and the trace geometry sets the frame geometry.
 * Scene pixels stay synthetic (traces carry labels, not pixels).
 */

#ifndef RPX_SOAK_SOAK_HPP
#define RPX_SOAK_SOAK_HPP

#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/bench_report.hpp"
#include "obs/telemetry.hpp"

namespace rpx::soak {

/** Soak run configuration. */
struct SoakOptions {
    /**
     * Concurrent stream slots (and initial streams). Churn replaces a
     * stream only after it retires, so live streams never exceed this.
     */
    u32 streams = 8;
    /** Simulated seconds of video per slot (frames = duration * fps). */
    double duration_s = 2.0;
    double fps = 30.0;
    /** Master seed for content, labels, churn schedule, and faults. */
    u64 seed = 1;
    /** Inject the standard fault mix (faultPlanFor in soak.cpp). */
    bool faults = true;
    /** Streams leave mid-run and replacements continue their slot. */
    bool churn = true;
    /**
     * Fleet-level chaos: seeded stage-delay injection (stalled workers,
     * slow engine leases, store bursts, capture jitter), the stage
     * watchdog, and an amplified fault mix with forced Stage::Shed
     * verdicts. Model quantities stay deterministic (chaos delays are
     * wall-only; shed/quarantine verdicts come from the seeded plan), so
     * the conservation checkpoints — including shed accounting — still
     * gate exactly.
     */
    bool chaos = false;
    /** Recorded rpx-trace v1 file; empty = synthetic labels. */
    std::string trace_path;
    /** Frame geometry when no trace supplies one. */
    i32 width = 128;
    i32 height = 96;
    /** Frames between invariant checkpoints (global, across streams). */
    u64 checkpoint_every = 256;
    /** Fleet topology. */
    u32 capture_workers = 2;
    u32 encode_engines = 4;
    u32 decode_engines = 4;
    /** Optional JSONL telemetry journal path. */
    std::string journal_path;
    /**
     * Test hook, invoked once per completed frame with the global frame
     * ordinal (1-based) from decode worker threads. Null = none.
     */
    std::function<void(u64 global_frame)> frame_hook;
};

/** One invariant checkpoint's observations. */
struct SoakCheckpoint {
    u64 at_frame = 0;       //!< global frame ordinal that triggered it
    u64 frames_drift = 0;   //!< journal frames - ledger frames
    u64 live_streams = 0;
    u64 rss_kb = 0;         //!< VmRSS at the checkpoint
    double duration_us = 0.0;
};

/** Aggregate outcome of one runSoak(). */
struct SoakResult {
    bool ok = false;                      //!< no violations, no errors
    std::vector<std::string> violations;  //!< empty when ok

    // Model quantities (deterministic for a given SoakOptions).
    u64 frames = 0;              //!< journal frame total
    u64 frames_budget = 0;       //!< streams * duration * fps
    u64 generations = 0;         //!< stream generations started
    u64 fault_drops = 0;         //!< sum of fault.*.drops
    u64 fault_byte_errors = 0;   //!< sum of fault.*.bytes_corrupted
    u64 fault_stalls = 0;        //!< sum of fault.*.stalls
    u64 degrade_escalations = 0;
    u64 degrade_recoveries = 0;
    u64 shed_frames = 0;        //!< guard-shed frames (chaos mode)
    u64 health_recoveries = 0;  //!< Quarantined -> recovery transitions
    u64 watchdog_warns = 0;     //!< watchdog warnings (chaos mode)
    u64 chaos_hits = 0;         //!< chaos injections that fired

    // Conservation outcome.
    u64 checkpoints = 0;
    u64 max_frames_drift = 0;   //!< worst mid-run drift observed
    u64 final_frames_drift = 0; //!< must be 0
    i64 final_bytes_drift = 0;  //!< sum of |journal - ledger| bytes; 0

    // Memory.
    u64 rss_start_kb = 0;
    u64 rss_peak_kb = 0;

    // Checkpoint latency (wall).
    double checkpoint_p50_us = 0.0;
    double checkpoint_p99_us = 0.0;

    std::vector<SoakCheckpoint> checkpoint_log;
    fleet::FleetReport fleet;
    obs::BenchReport bench; //!< embedded "soak" bench report
};

/**
 * Compare the telemetry journal with the fleet ledger (errored frames
 * already taken out, as the journal never sees them) on every field
 * both count. The journal is read twice, `before` and `after` the
 * ledger. A frame is journaled before it is counted in the ledger, and
 * both only grow, so the journal at the moment of the ledger read lies
 * between the two reads. The check is that it can lie within the window:
 * `after` never trails the ledger, and `before` leads it by at most
 * `frame_cap` on per-frame fields and `byte_cap` on the others. Frames
 * journaled after the ledger read count in neither bound. Each field
 * outside the window is one violation, prefixed by `where`. With
 * `before` == `after` (a quiesced fleet) this is the single-read check.
 */
std::vector<std::string> ledgerViolations(const std::string &where,
                                          const obs::TelemetryTotals &before,
                                          const fleet::FrameTotals &ledger,
                                          const obs::TelemetryTotals &after,
                                          u64 frame_cap, u64 byte_cap);

/** Run one soak. Throws on setup errors (e.g. unreadable trace). */
SoakResult runSoak(const SoakOptions &options);

/**
 * Serialize as pretty-printed JSON, schema "rpx-soak-report-v1", with
 * the bench report embedded under "bench" (readBenchReportFile unwraps
 * it, so a soak report is directly consumable by trend_compare).
 */
std::string toJson(const SoakResult &result);

} // namespace rpx::soak

#endif // RPX_SOAK_SOAK_HPP
