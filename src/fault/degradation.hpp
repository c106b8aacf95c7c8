/**
 * @file
 * Graceful pipeline degradation (rpx::fault).
 *
 * Related systems degrade instead of failing: time-shared FPGA vision
 * pipelines tolerate deadline misses without collapsing, and ROI-based
 * adaptive subsampling sheds resolution under pressure. The
 * DegradationController brings that behaviour to the rhythmic pipeline as
 * an escalation ladder driven by per-frame health reports:
 *
 *   - transient DMA failures are retried at the source (DmaWriter) with a
 *     bounded retry budget and never reach the ladder;
 *   - a quarantined decode (corrupt metadata caught by CRC/validate)
 *     holds the last good frame instead of emitting garbage;
 *   - consecutive frame-deadline misses escalate the degradation level,
 *     which shrinks the region budget and coarsens temporal skip factors
 *     so the encoder sheds work;
 *   - N consecutive clean frames step the level back toward full quality.
 *
 * The controller is a pure state machine with no pipeline dependencies,
 * so the ladder is unit-testable frame by frame.
 */

#ifndef RPX_FAULT_DEGRADATION_HPP
#define RPX_FAULT_DEGRADATION_HPP

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace rpx::fault {

/** Ladder tuning. Defaults follow the DESIGN.md fault-tolerance section. */
struct DegradationConfig {
    /** Consecutive deadline misses before stepping one level down. */
    int escalate_after_misses = 2;
    /** Consecutive clean frames before stepping one level back up. */
    int recover_after_clean = 8;
    /** Deepest degradation level (0 = full quality). */
    int max_level = 3;
    /** Region-budget multiplier applied once per level (0 < scale <= 1). */
    double budget_scale_per_level = 0.5;
    /** Added to every region's temporal skip factor per level. */
    i32 skip_boost_per_level = 1;
};

/** What one pipeline frame reported back. */
struct FrameHealth {
    bool deadline_missed = false;    //!< frame exceeded its deadline
    bool decode_quarantined = false; //!< decode rejected the frame
};

/**
 * Lifetime ladder actions. Frame outcomes are counted by the pipeline's
 * ledger (fleet::FrameTotals), not here.
 */
struct DegradationStats {
    u64 escalations = 0;
    u64 recoveries = 0;
};

/**
 * The escalation-ladder state machine. Feed it exactly one FrameHealth
 * per frame via onFrame(); read the knobs before encoding the next frame.
 */
class DegradationController
{
  public:
    explicit DegradationController(const DegradationConfig &config);
    DegradationController() : DegradationController(DegradationConfig{}) {}

    const DegradationConfig &config() const { return config_; }

    /** Record one frame's health and advance the ladder. */
    void onFrame(const FrameHealth &health);

    /** Current degradation level; 0 = full quality. */
    int level() const { return level_; }

    /** True when the frame just reported should be held-last-good. */
    bool holdLastGood() const { return hold_; }

    /** Region-count multiplier for the current level (1.0 at level 0). */
    double regionBudgetScale() const;

    /** Temporal-skip increment for the current level (0 at level 0). */
    i32 skipBoost() const;

    const DegradationStats &stats() const { return stats_; }

    /**
     * Attach an observability context: "degrade.escalations" and
     * "degrade.recoveries" counters plus a "degrade.level" gauge mirror
     * every ladder action. Null detaches.
     */
    void attachObs(obs::ObsContext *ctx);

  private:
    DegradationConfig config_;
    int level_ = 0;
    int miss_streak_ = 0;
    int clean_streak_ = 0;
    bool hold_ = false;
    DegradationStats stats_;

    obs::Counter *obs_escalations_ = nullptr;
    obs::Counter *obs_recoveries_ = nullptr;
    obs::Gauge *obs_level_ = nullptr;
};

} // namespace rpx::fault

#endif // RPX_FAULT_DEGRADATION_HPP
