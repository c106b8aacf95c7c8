/**
 * @file
 * Fleet overload protection (rpx::guard).
 *
 * The fleet's stage graph is lossless by construction — every admitted
 * frame flows capture → encode → store → decode → vision and is accounted
 * in journal, registry, and fleet report. That is the right default, but
 * it has no defense against *overload*: addStream admits until the hard
 * cap, a wedged worker holds its queue's frames indefinitely, and a frame
 * that is already hopelessly late still burns a full engine lease.
 * rpx::guard supplies the three defenses and the bookkeeping that keeps
 * the conservation invariant exact while they act:
 *
 *  - **Admission control**: a capacity model (engine throughput × fps
 *    budget) that rejects streams the fleet cannot serve, with an
 *    explicit reject-with-reason result.
 *  - **Health state machine**: per-stream Healthy → Degraded →
 *    Quarantined → Evicted with recovery transitions, driven by frame
 *    outcomes (pure and deterministic — chaos never feeds it wall-clock
 *    signals, so same-seed runs report identical health trajectories).
 *  - **Watchdog / shedding config**: thresholds for the fleet's monitor
 *    thread and the deadline-aware load shedder at EDF dequeue.
 *
 * Everything here is policy + pure state; the mechanism lives in
 * FleetServer. All features default off, preserving seed behavior.
 */

#ifndef RPX_GUARD_GUARD_HPP
#define RPX_GUARD_GUARD_HPP

#include <string>

#include "common/types.hpp"

namespace rpx::guard {

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/** How addStream decides whether the fleet can take one more stream. */
enum class AdmissionPolicy : u32 {
    HardCapOnly = 0, //!< legacy behavior: admit until max_streams
    CapacityModel,   //!< reject when projected demand exceeds capacity
};

/** Printable policy name ("hard_cap", "capacity"). */
const char *admissionPolicyName(AdmissionPolicy policy);

/** Capacity-model knobs. */
struct AdmissionConfig {
    AdmissionPolicy policy = AdmissionPolicy::HardCapOnly;
    /**
     * Fraction of modelled engine throughput admission may commit.
     * Everything above is reserved for jitter/burst absorption.
     */
    double headroom = 0.85;
    /**
     * Assumed per-frame engine hold time (µs) for the capacity model.
     * 0 = derive from the live EWMA of measured encode engine-hold time;
     * until the EWMA warms up the model admits (cold-start grace).
     */
    double frame_cost_us = 0.0;
};

/** Why a stream was (not) admitted. */
enum class AdmissionOutcome : u32 {
    Admitted = 0,
    RejectedCapacity, //!< capacity model: demand would exceed supply
    RejectedHardCap,  //!< max_streams reached
    RejectedDrained,  //!< fleet has already drained
};

/** Reject-with-reason result of FleetServer::tryAddStream. */
struct AdmissionResult {
    AdmissionOutcome outcome = AdmissionOutcome::Admitted;
    u32 id = 0;              //!< admitted stream id (valid iff admitted)
    std::string reason;      //!< human-readable reject reason
    double demand_fps = 0.0; //!< projected fleet demand incl. candidate
    double capacity_fps = 0.0; //!< modelled usable capacity

    bool admitted() const { return outcome == AdmissionOutcome::Admitted; }
};

// ---------------------------------------------------------------------------
// Per-stream health state machine
// ---------------------------------------------------------------------------

/**
 * Stream health, exported in rpx-fleet-report-v1.
 *
 *   Healthy ⇄ Degraded ⇄ Quarantined → Evicted
 *
 * Forward transitions are driven by frame outcomes (degradation-ladder
 * level, decode quarantines); recovery transitions by clean-frame
 * streaks. Evicted is terminal and only entered by explicit verdicts
 * (watchdog timeout, removeStream).
 */
enum class HealthState : u32 {
    Healthy = 0,
    Degraded,
    Quarantined,
    Evicted,
};

/** Printable state name ("healthy", ...). */
const char *healthStateName(HealthState state);

/** Health transition thresholds. */
struct HealthConfig {
    /** Decode-quarantined frames in a row before Quarantined. */
    u32 quarantine_streak = 3;
    /** Clean frames in a row before stepping back toward Healthy. */
    u32 recover_streak = 4;
};

/** One frame's worth of health evidence. */
struct HealthSignal {
    bool decode_quarantined = false; //!< frame served from quarantine path
    bool shed = false;               //!< frame shed by the guard
    bool deadline_missed = false;    //!< frame missed its EDF deadline
    u32 degradation_level = 0;       //!< ladder level after this frame
};

/**
 * Pure per-stream health tracker. Deterministic function of the frame
 * outcome sequence — no clocks, no RNG — so fleet reports are
 * reproducible across same-seed runs even with chaos enabled.
 */
class HealthMachine
{
  public:
    explicit HealthMachine(const HealthConfig &cfg = {}) : cfg_(cfg) {}

    HealthState state() const { return state_; }
    u64 transitions() const { return transitions_; }
    /** Quarantined → (Degraded|Healthy) recoveries observed. */
    u64 recoveries() const { return recoveries_; }

    /** Fold one frame outcome into the state machine. */
    void onFrame(const HealthSignal &signal);

    /** External verdict (watchdog timeout, removeStream). Terminal. */
    void evict();

  private:
    void moveTo(HealthState next);

    HealthConfig cfg_;
    HealthState state_ = HealthState::Healthy;
    u32 dirty_streak_ = 0;   //!< consecutive decode-quarantined frames
    u32 clean_streak_ = 0;   //!< consecutive fully-clean frames
    u32 decoded_streak_ = 0; //!< consecutive non-quarantined frames
    u64 transitions_ = 0;
    u64 recoveries_ = 0;
};

// ---------------------------------------------------------------------------
// Watchdog + shedding
// ---------------------------------------------------------------------------

/**
 * Stage-watchdog thresholds. When enabled, FleetServer runs a monitor
 * thread that scans per-stream in-flight ages and per-stage progress
 * heartbeats, escalating warn → quarantine → evict. Workers switch to
 * timed queue pops so a closed-over wedge cannot hold them hostage.
 */
struct WatchdogConfig {
    bool enabled = false;
    u32 interval_ms = 50;     //!< monitor scan period
    u32 warn_ms = 200;        //!< in-flight age: log + count a warning
    u32 quarantine_ms = 500;  //!< in-flight age: force-quarantine stream
    u32 evict_ms = 1000;      //!< in-flight age: evict stream from fleet
};

/** Deadline-aware load shedding at EDF dequeue. */
struct ShedConfig {
    bool enabled = false;
    /**
     * A frame is shed when now > deadline + slack at dequeue: already so
     * late that burning an engine lease cannot save it. Slack > 0 gives
     * borderline frames a chance to complete late rather than shed.
     */
    double slack_ms = 0.0;
};

/** The full guard policy bundle carried by FleetConfig. */
struct GuardConfig {
    AdmissionConfig admission;
    HealthConfig health;
    WatchdogConfig watchdog;
    ShedConfig shed;
};

} // namespace rpx::guard

#endif // RPX_GUARD_GUARD_HPP
