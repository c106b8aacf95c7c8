#include "fault/degradation.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rpx::fault {

DegradationController::DegradationController(const DegradationConfig &config)
    : config_(config)
{
    if (config.escalate_after_misses < 1)
        throwInvalid("escalate_after_misses must be >= 1");
    if (config.recover_after_clean < 1)
        throwInvalid("recover_after_clean must be >= 1");
    if (config.max_level < 0)
        throwInvalid("max_level must be >= 0");
    if (config.budget_scale_per_level <= 0.0 ||
        config.budget_scale_per_level > 1.0)
        throwInvalid("budget_scale_per_level must lie in (0, 1]");
    if (config.skip_boost_per_level < 0)
        throwInvalid("skip_boost_per_level must be >= 0");
}

void
DegradationController::onFrame(const FrameHealth &health)
{
    hold_ = health.decode_quarantined;
    const bool clean =
        !health.deadline_missed && !health.decode_quarantined;
    if (clean) {
        miss_streak_ = 0;
        ++clean_streak_;
        if (clean_streak_ >= config_.recover_after_clean && level_ > 0) {
            --level_;
            ++stats_.recoveries;
            clean_streak_ = 0;
            if (obs_recoveries_)
                obs_recoveries_->inc();
        }
    } else {
        clean_streak_ = 0;
        if (health.deadline_missed) {
            ++miss_streak_;
            if (miss_streak_ >= config_.escalate_after_misses) {
                miss_streak_ = 0;
                if (level_ < config_.max_level) {
                    ++level_;
                    ++stats_.escalations;
                    if (obs_escalations_)
                        obs_escalations_->inc();
                }
            }
        }
    }
    if (obs_level_)
        obs_level_->set(level_);
}

double
DegradationController::regionBudgetScale() const
{
    return std::pow(config_.budget_scale_per_level, level_);
}

i32
DegradationController::skipBoost() const
{
    return config_.skip_boost_per_level * level_;
}

void
DegradationController::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_escalations_ = obs_recoveries_ = nullptr;
        obs_level_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_escalations_ = &r.counter("degrade.escalations");
    obs_recoveries_ = &r.counter("degrade.recoveries");
    obs_level_ = &r.gauge("degrade.level");
}

} // namespace rpx::fault
