/**
 * @file
 * Pixel-clock cycle budget of a streaming stage: the pixels a hardware
 * stage on the pixel path consumed against the cycles it modelled
 * (IspPipeline's 2 px/clk timing model charges one).
 */

#ifndef RPX_STREAM_CYCLE_BUDGET_HPP
#define RPX_STREAM_CYCLE_BUDGET_HPP

#include "common/types.hpp"

namespace rpx {

/**
 * Cycle budget tracker for a streaming stage.
 *
 * The reVISION pipeline runs at 2 pixels per clock (Table 2); a stage that
 * spends more than `pixels / ppc` cycles on a frame has failed its budget.
 */
class CycleBudget
{
  public:
    explicit CycleBudget(double pixels_per_clock = 2.0)
        : ppc_(pixels_per_clock)
    {
    }

    void addPixels(u64 n) { pixels_ += n; }
    void addCycles(Cycles n) { cycles_ += n; }

    u64 pixels() const { return pixels_; }
    Cycles cycles() const { return cycles_; }

    /** Cycles the stage is allowed for the pixels it has consumed. */
    Cycles
    budgetCycles() const
    {
        return static_cast<Cycles>(static_cast<double>(pixels_) / ppc_ + 0.5);
    }

    /** True if the stage kept up with the pixel clock. */
    bool withinBudget() const { return cycles_ <= budgetCycles(); }

    double pixelsPerClock() const { return ppc_; }

    void
    reset()
    {
        pixels_ = 0;
        cycles_ = 0;
    }

  private:
    double ppc_;
    u64 pixels_ = 0;
    Cycles cycles_ = 0;
};

} // namespace rpx

#endif // RPX_STREAM_CYCLE_BUDGET_HPP
