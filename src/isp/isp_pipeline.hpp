/**
 * @file
 * The end-to-end ISP stage chain: demosaic -> gamma -> colour conversion,
 * with a 2-pixels-per-clock timing model (Table 2). The rhythmic encoder
 * attaches at this pipeline's output (§4.1.2).
 *
 * Gray output runs the three stages fused, one site at a time: the 3x3
 * Bayer window's bilinear RGB, then gamma and BT.601 luma as three table
 * lookups (LumaTables). Since the encoder reads only its kept pixels,
 * processKept() runs that kernel only at the frame plan's R positions —
 * the software form of doing only the imaging work vision consumes. The
 * modelled timing is the full-frame 2 px/clk either way.
 */

#ifndef RPX_ISP_ISP_PIPELINE_HPP
#define RPX_ISP_ISP_PIPELINE_HPP

#include <array>
#include <memory>

#include "core/kept_plan.hpp"
#include "frame/image.hpp"
#include "isp/gamma.hpp"
#include "stream/cycle_budget.hpp"

namespace rpx {

/** ISP output colour mode. */
enum class IspOutput {
    Gray,   //!< luma only (what the vision workloads consume)
    Rgb,    //!< demosaiced RGB
};

/** ISP configuration. */
struct IspConfig {
    double gamma = 1.0 / 2.2;
    IspOutput output = IspOutput::Gray;
    double pixels_per_clock = 2.0;
};

/**
 * Gamma then BT.601 luma of a demosaiced site as three 256-entry tables:
 * entry v of channel c holds k_c * gamma(v). Summed in the order
 * r + g + b, the doubles are exactly those of
 * 0.299 * gamma(r) + 0.587 * gamma(g) + 0.114 * gamma(b), the weighting of
 * Image::toGray, so every luma byte is the staged chain's.
 */
class LumaTables
{
  public:
    explicit LumaTables(const GammaLut &gamma);

    u8
    luma(u8 r, u8 g, u8 b) const
    {
        return clampToU8(r_[r] + g_[g] + b_[b]);
    }

  private:
    std::array<double, 256> r_{};
    std::array<double, 256> g_{};
    std::array<double, 256> b_{};
};

/**
 * Frame-at-a-time ISP with streaming timing accounting.
 */
class IspPipeline
{
  public:
    explicit IspPipeline(const IspConfig &config = IspConfig{});

    const IspConfig &config() const { return config_; }

    /**
     * Process one RAW Bayer frame into the configured output format.
     * Grayscale inputs skip the demosaic (pass-through + gamma).
     */
    Image process(const Image &raw);

    /**
     * process() into a caller-owned image, reusing its allocation across
     * frames. Output and cycle accounting are identical to process().
     */
    void processInto(const Image &raw, Image &out);

    /**
     * Gray output at the plan's kept pixels only: `out` is re-shaped to
     * the frame and every R position of `plan` holds exactly what
     * process() would put there; the other pixels are left at 0. Cycle
     * accounting is process()'s. Falls back to processInto() when the
     * input is not Bayer or the output is not gray.
     */
    void processKept(const Image &raw, const KeptRunPlan &plan, Image &out);

    /** Cycle accounting for the frames processed so far. */
    const CycleBudget &budget() const { return budget_; }

  private:
    /** Model one frame's 2 px/clk timing. */
    void chargeFrame(const Image &raw);

    /**
     * The luma tables, built on the first gray Bayer frame: streams that
     * never run the sensor path never pay for their 6 KiB.
     */
    const LumaTables &lumaTables();

    IspConfig config_;
    GammaLut gamma_;
    std::unique_ptr<const LumaTables> luma_;
    CycleBudget budget_;
};

} // namespace rpx

#endif // RPX_ISP_ISP_PIPELINE_HPP
